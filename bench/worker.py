"""One benchmark worker: imports postcap from the checkout, says when that
set-up is done, then runs the operations the runner (run.py) asks for, one at a
time, and checks each output.

    python3 bench/worker.py ROOT WORKLOAD SEED TRACE

Protocol, one JSON object per line.  The worker's stdout is moved to
stderr first, so nothing the program prints can mix into it.
    worker: {"ready": true}              once postcap is imported
    worker: {"ops": [name, ...]}
    runner: {"context": true}            worker: numeric library versions
    runner: {"op": i}                    worker: outcome of op i, with seconds and cpu_s
    runner: {"end": true, "wall_s": w}   worker: {"layers": {...}} (traced) or {}, exits 0

A traced worker keeps its spans in memory and reduces them to per-layer
metrics at the end, so the runner never holds them.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
import types
import warnings


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _libraries():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main():
    root, workload, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(message):
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import postcap
    import postcap.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(postcap.__file__))) != os.path.abspath(src):
        sys.exit(f"postcap imported from {postcap.__file__}, not from {src}")
    send({"ready": True})

    import metrics
    import tracing
    import workloads

    warnings.simplefilter("ignore")
    short = ("probability", "channels", "directed_info", "closed_form", "construction", "optimize", "cli")
    modules = {name: getattr(postcap, name) for name in short}
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, postcap, modules)
    ops = workloads.OPS[workload](seed)
    send({"ops": [name for name, _ in ops]})

    pc = types.SimpleNamespace(**modules)
    outcomes = []
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("context"):
            send(_libraries())
            continue
        if message.get("end"):
            break
        index = message["op"]
        name, fn = ops[index]
        if tracer:
            tracer.op = index
        cpu0, start = _cpu(), time.perf_counter()
        try:
            outcome = fn(pc)
        except Exception as exc:
            traceback.print_exc()
            outcome = {"ok": False, "reason": f"raised {type(exc).__name__}: {exc}", "certified": None}
        outcome.update(name=name, seconds=time.perf_counter() - start, cpu_s=_cpu() - cpu0)
        outcomes.append(outcome)
        send(outcome)
    if tracer:
        send({"layers": metrics.layer_values(tracer.take(), outcomes, message["wall_s"])})
    else:
        send({})


if __name__ == "__main__":
    main()
