"""Benchmark of postcap: time to a certified answer, end to end and per layer.

    python3 bench/run.py --workload {mary,feedback_binary,construction,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; postcap is imported from its src/.  One
worker process runs at a time and serves one client in a closed loop: the
next operation is sent only when the previous one has answered, and its
BLAS runs one thread (see WORKER_THREAD_ENV).  Each pass of a workload
runs its operations in a fresh worker, as a command-line call would.  Passes repeat until --seconds are used; the
last untraced pass runs only the operations that fit in the time left.

With --trace 0 the last line holds the end-to-end metrics: setup_s and
peak_rss_mb are medians over workers and passes, wall_s is the sum over
operations of each operation's median time.  With --trace 1 it holds the
per-layer metrics of traced passes, which alternate with untraced ones
so that trace.overhead_s can be measured.
The last line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 whenever the benchmark itself ran; failed operations
are reported, not raised.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SAMPLES = 6
# Passes stop by this time even if workers keep dying, so that a run ends
# well within three minutes.
PASS_BUDGET_S = 140.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "POSTCAP_THREADS",
)
# The worker's BLAS runs one thread.  With two, OpenBLAS's second thread
# mostly spins (table1 took 1.9x its wall time in CPU for at most a tenth
# less wall time on two vCPUs) and any other process on the machine stalls
# it: table1 went from 8 s to 36 s beside one other process, against 9 s
# with one thread.  The caller's own settings are kept in the context.
WORKER_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A worker process; setup_s runs from spawn to the end of import postcap."""

    def __init__(self, workload, seed, trace):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, ROOT, workload, str(seed), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **WORKER_THREAD_ENV},
            cwd=ROOT,
        )
        self.usage = None
        try:
            self._read()
            self.setup_s = time.perf_counter() - start
            self.ops = self._read()["ops"]
        except WorkerDied:
            self.reap()
            raise SystemExit(f"worker failed to start (exit status {self.proc.returncode})")

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied()
        return json.loads(line)

    def call(self, message):
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied() from None
        return self._read()

    def reap(self):
        """Wait for the worker and keep its own resource usage.

        os.wait4 reads the usage of this child alone; RUSAGE_CHILDREN
        would give the largest peak of every child reaped so far.  On
        Linux the child's peak also covers the peak of the process that
        spawned it (exec keeps the high-water mark of the memory it
        replaces), so the runner must stay smaller than any worker.
        """
        if self.proc.returncode is None:
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)

    def close(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_pass(workload, seed, trace, deadline=None, samples=None):
    """One worker runs the operations of the workload, each at most once.

    With a deadline (a time.perf_counter() value) and the seconds each
    operation took so far (samples), the pass runs the operations with
    the fewest samples first and skips any that would end after the
    deadline.  A pass that skipped one is cut: its operation times count
    towards wall_s, its memory and CPU do not.
    """
    worker = Worker(workload, seed, trace)
    outcomes, layers, complete, died = [], None, False, False
    try:
        order = list(range(len(worker.ops)))
        if deadline is not None:
            predicted = {name: statistics.median(samples.get(name) or [0.0]) for name in worker.ops}
            order.sort(key=lambda i: len(samples.get(worker.ops[i], ())))
        start = time.perf_counter()
        for index in order:
            name = worker.ops[index]
            if deadline is not None and time.perf_counter() + predicted[name] > deadline:
                continue
            try:
                outcomes.append(worker.call({"op": index}))
            except WorkerDied:
                worker.reap()
                reason = f"worker exited with status {worker.proc.returncode}"
                outcomes.append({"name": name, "ok": False, "certified": None, "reason": reason})
                died = True
                break
        if not died:
            wall_s = time.perf_counter() - start
            layers = worker.call({"end": True, "wall_s": wall_s}).get("layers")
            worker.reap()
            complete = worker.proc.returncode == 0 and len(outcomes) == len(worker.ops)
    finally:
        worker.close()
    result = {"setup_s": worker.setup_s, "outcomes": outcomes, "complete": complete, "traced": trace}
    if complete:
        peak_rss_mb = worker.usage.ru_maxrss / 1024.0
        if peak_rss_mb <= _own_peak_mb():
            raise SystemExit("the runner is larger than the worker: its peak RSS would hide the worker's")
        result.update(
            wall_s=wall_s,
            cpu_s=sum(o["cpu_s"] for o in outcomes),
            peak_rss_mb=peak_rss_mb,
            layers=layers,
        )
    return result


def _own_peak_mb():
    """Peak resident memory of this process since its exec (VmHWM), MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def measure_setup(workload, seed, samples):
    times = []
    for _ in range(samples):
        worker = Worker(workload, seed, False)
        try:
            worker.call({"end": True, "wall_s": 0.0})
            worker.reap()
        finally:
            worker.close()
        times.append(worker.setup_s)
    return times


def run_workload(workload, seed, seconds, trace):
    """Set-up samples, then passes until --seconds have been measured.

    The first worker of the command (see libraries) has already compiled
    the bytecode and warmed the file cache, which a user pays once, not
    on every call.  Once a pass has completed, untraced passes are cut at
    the deadline, so the whole run yields operation times.  Traced
    runs alternate whole traced and untraced passes: T, U, T, U, ...
    """
    setups = measure_setup(workload, seed, SETUP_SAMPLES)
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced_next = trace and len(passes) % 2 == 0
        cut = not trace and any(p["complete"] for p in passes)
        samples = metrics.op_seconds(_untraced_outcomes(passes))
        began = time.perf_counter()
        result = run_pass(workload, seed, traced_next, deadline if cut else None, samples)
        result["duration"] = time.perf_counter() - began
        passes.append(result)
        setups.append(result["setup_s"])
        if cut and not result["complete"]:
            break  # it filled the time left
        done = [p for p in passes if p["complete"]]
        enough = any(not p["traced"] for p in done) and (
            not trace or sum(p["traced"] for p in done) >= 2
        )
        if trace or not done:
            next_end = time.perf_counter() + statistics.median(p["duration"] for p in passes)
        else:
            # A pass that may be cut is worth starting while its shortest
            # operation fits.
            shortest = min(metrics.op_medians(_untraced_outcomes(passes)).values())
            next_end = time.perf_counter() + statistics.median(setups) + shortest
        if (enough and next_end > deadline) or next_end - start > PASS_BUDGET_S:
            break
    if not enough:
        raise SystemExit(f"{workload}: too few passes completed to measure")
    return setups, passes


def _untraced_outcomes(passes):
    return [p["outcomes"] for p in passes if not p["traced"]]


def e2e_values(setups, passes):
    """setup_s over every worker; wall_s summed over operations from their
    times in all untraced passes, cut ones too; peak_rss_mb over complete
    untraced passes."""
    untraced = [p for p in passes if p["complete"] and not p["traced"]]
    values = {
        "setup_s": metrics.summary(setups),
        "wall_s": metrics.op_sum_summary(metrics.op_seconds(_untraced_outcomes(passes))),
    }
    if untraced:
        values["peak_rss_mb"] = metrics.summary([p["peak_rss_mb"] for p in untraced])
    return values


def layer_run_values(passes):
    traced = [p for p in passes if p["complete"] and p["traced"]]
    untraced = [p for p in passes if p["complete"] and not p["traced"]]
    return metrics.combine_traced(
        [p["layers"] for p in traced],
        [p["wall_s"] for p in traced],
        [p["wall_s"] for p in untraced],
        [p["cpu_s"] for p in untraced],
    )


def context(seed, libraries):
    """What a result depends on besides the code: machine, libraries,
    thread settings the caller chose, the source and the seed."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **libraries,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
        "worker_thread_env": WORKER_THREAD_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def libraries(workload, seed):
    """Ask an untimed worker which Python, numpy, scipy and BLAS it runs."""
    worker = Worker(workload, seed, False)
    try:
        found = worker.call({"context": True})
        worker.call({"end": True, "wall_s": 0.0})
        worker.reap()
    finally:
        worker.close()
    return found


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, setups, passes, trace):
    """Print the human-readable lines of one workload; return its metrics."""
    outcomes = [o for p in passes for o in p["outcomes"]]
    counts = metrics.outcome_counts(outcomes)
    kinds = f"{sum(not p['traced'] for p in passes)} untraced, {sum(p['traced'] for p in passes)} traced"
    print(f"== {workload}: {len(passes)} passes ({kinds}); {metrics.WORKLOADS[workload]}")
    e2e = e2e_values(setups, passes)
    for name, unit, _ in metrics.E2E:
        if name in e2e:
            s = e2e[name]
            print(
                f"  {name:<12} {unit:<6} median {_fmt(s['median'])}  q1 {_fmt(s['q1'])}"
                f"  q3 {_fmt(s['q3'])}  n {s['n']}"
            )
    print(
        f"  {'failed_frac':<12} {'ratio':<6} {_fmt(counts['failed_frac'])} of {counts['attempted']} attempted"
        f" ({counts['failed']} wrong or raised, {counts['uncertified']} certificates not passed)"
    )
    for line, times in counts["failures"]:
        print(f"    failed: {line} ({times}x)")
    if not trace:
        values = {name: e2e[name]["median"] for name, _, _ in metrics.E2E if name in e2e}
        return counts, values
    values, mismatches = layer_run_values(passes)
    for name, unit, _ in metrics.LAYERS:
        moves, on = metrics.MOVES[name]
        print(f"  {name:<44} {unit:<6} {_fmt(values[name]):>12}   moves {moves} on {on}")
    traced = [p for p in passes if p["complete"] and p["traced"]]
    wall = statistics.median(p["wall_s"] for p in traced)
    print(
        f"  top-level spans cover {_fmt(wall - values['trace.uncovered_s'])} s of the traced"
        f" wall_s {_fmt(wall)} s; uncovered {_fmt(values['trace.uncovered_s'])} s"
    )
    for name, low, high in mismatches:
        print(f"  count differs between traced passes: {name} from {low} to {high}")
    return counts, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*metrics.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "postcap", "__init__.py")):
        print(f"no postcap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    found = libraries(names[0], args.seed)
    print("context " + json.dumps(context(args.seed, found), sort_keys=True), flush=True)
    units = {name: unit for name, unit, *_ in (metrics.LAYERS if args.trace else metrics.E2E)}
    attempted = failed = 0
    result = {}
    for workload in names:
        setups, passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        counts, values = report(workload, setups, passes, bool(args.trace))
        attempted += counts["attempted"]
        failed += counts["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, value in values.items():
            result[metrics.check_name(prefix + name)] = {"value": value, "unit": units[name]}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
