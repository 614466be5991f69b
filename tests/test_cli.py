import hashlib
import math
import os
import select
import subprocess
import sys
import time
import tracemalloc
import warnings
from signal import SIGKILL

import pytest
from pytest import approx

import postcap.cli
from postcap.cli import _map_over_cpus, main
from postcap.closed_form import mary_feedback_capacity, mary_horizon_values
from postcap.optimize import FeedbackReport


def test_capacity_post_alpha(capsys):
    assert main(["capacity", "post-alpha", "--alpha", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "capacity_bits: 0.321928" in out


def test_capacity_post_ab(capsys):
    assert main(["capacity", "post-ab", "--a", "0.9", "--b", "0.9"]) == 0
    assert "capacity_bits: 0.531004" in capsys.readouterr().out


def test_capacity_mary(capsys):
    assert main(["capacity", "mary", "--m", "4"]) == 0
    assert "capacity_bits: 1.000000" in capsys.readouterr().out


def test_capacity_numeric_check(capsys):
    for target in (["post-alpha", "--alpha", "0.5", "--n", "2"], ["mary", "--m", "4", "--n", "3"]):
        code = main(["capacity", *target, "--numeric-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified: True" in out
        assert "numeric_gap:" in out


@pytest.mark.parametrize("m, n, s0", [(1, 3, 0), (2, 3, 0), (1, 3, 1), (3, 2, 0)])
def test_mary_numeric_check_allows_the_horizon_slack(m, n, s0, capsys):
    # the n-use value per use differs from the capacity by up to span(h) / n;
    # the check compares it with the exact n-use value instead, to --tol
    argv = ["capacity", "mary", "--m", str(m), "--n", str(n), "--s0", str(s0), "--numeric-check"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "certified: True" in out and "horizon_slack" not in out
    gap = float(out.split("numeric_gap: ")[1].split()[0])
    assert gap <= 1e-12
    value = float(out.split("numeric_value_bits_per_use: ")[1].split()[0])
    assert abs(value - mary_feedback_capacity(m).capacity_bits) > 1e-2


def test_numeric_check_slack_is_zero_where_h_is_flat(capsys):
    # h is flat at m = 4, so the exact n-use value is n C; --tol 0 fails even there
    assert mary_horizon_values(4, 3)[0] == approx(3 * mary_feedback_capacity(4).capacity_bits, abs=1e-15)
    assert main(["capacity", "mary", "--m", "4", "--n", "3", "--tol", "0", "--numeric-check"]) == 1
    assert "numeric_gap: 0.000e+00" in capsys.readouterr().out
    assert main(["capacity", "post-alpha", "--alpha", "0.5", "--n", "2", "--numeric-check"]) == 0
    assert "horizon_slack" not in capsys.readouterr().out


@pytest.mark.parametrize("m, n", [(1023, 1), (255, 16), (16, 1000)])
def test_mary_numeric_check_holds_to_tol_at_any_m_and_n(m, n, monkeypatch, capsys):
    # the span(h) / n slack was 3.236 bits per use at m = 1023, n = 1; the
    # check now fails a value 1e-3 bits per use off the exact one
    argv = ["capacity", "mary", "--m", str(m), "--n", str(n), "--numeric-check"]
    assert main(argv) == 0
    assert "certified: True" in capsys.readouterr().out
    below, top = mary_horizon_values(m, n)
    monkeypatch.setattr(postcap.cli, "mary_horizon_values", lambda m, n: (below + 1e-3 * n, top))
    assert main(argv) == 1
    assert "certified: True" in capsys.readouterr().out


def test_capacity_rejects_bad_parameter():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "post-alpha", "--alpha", "1.5"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "post-alpha", "--alpha", "0.5", "--bogus"])
    assert exc.value.code == 2


def test_sweep_alpha_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "alpha", "--points", "11", "--out", str(out1)]) == 0
    assert main(["sweep", "alpha", "--points", "11", "--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "alpha,capacity_bits"
    assert "0.500000,0.321928" in lines
    assert len(lines) == 12


def test_sweep_ab_includes_degenerate_rows(tmp_path):
    out = tmp_path / "ab.csv"
    assert main(["sweep", "ab", "--points", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,capacity_bits,gamma"
    assert len(lines) == 26
    degenerate = [ln for ln in lines[1:] if ln.endswith(",")]
    assert degenerate  # the a + b = 1 diagonal has no gamma
    for ln in degenerate:
        assert ",0.000000," in ln
    symmetric = [ln for ln in lines if ln.startswith("0.750000,0.750000")]
    assert symmetric and symmetric[0].endswith("1.000000")


def test_table1_quick_row(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        [
            "table1",
            "--max-m",
            "2",
            "--upper-bound-max-m",
            "1",
            "--out",
            str(out),
            "--check",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,upper_bound,scheme_rate,feedback_capacity"
    assert lines[1].startswith("1,0.791")
    assert lines[2].startswith("2,,0.333333,0.832")


TABLE1_CLOSED_FORM_CSV = """\
m,upper_bound,scheme_rate,feedback_capacity
1,,0.000000,0.759582
2,,0.333333,0.832506
4,,0.666667,1.000000
8,,1.000000,1.259941
16,,1.333333,1.536590
32,,1.666667,1.826011
64,,2.000000,2.125202
128,,2.333333,2.431899
256,,2.666667,2.744387
512,,3.000000,3.061363
1024,,3.333333,3.381833
"""


# the default table: the m = 2 upper bound is 0.8567625017 per use, 1.7e-9
# above the rounding boundary 0.8567625, so a solver path that lands lower
# but within tolerance would print 0.856762
TABLE1_DEFAULT_CSV = """\
m,upper_bound,scheme_rate,feedback_capacity
1,0.791792,0.000000,0.759582
2,0.856763,0.333333,0.832506
4,0.980335,0.666667,1.000000
8,,1.000000,1.259941
16,,1.333333,1.536590
32,,1.666667,1.826011
64,,2.000000,2.125202
128,,2.333333,2.431899
256,,2.666667,2.744387
512,,3.000000,3.061363
1024,,3.333333,3.381833
"""


def test_table1_default_csv_is_pinned_byte_for_byte(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == 0
    assert out.read_text() == TABLE1_DEFAULT_CSV


def test_table1_closed_form_rows_are_pinned(tmp_path):
    # the scheme rate and the feedback capacity of all 11 rows, printed
    out = tmp_path / "table.csv"
    assert main(["table1", "--upper-bound-max-m", "0", "--out", str(out)]) == 0
    assert out.read_text() == TABLE1_CLOSED_FORM_CSV


# (byte count, SHA-256) of two sweeps' CSV files, 1,682 and 202 lines
SWEEP_PINS = {
    ("ab", "41"): (60252, "23e0c00547d967836a619ddda7f9f19eb54511ec00142faa176da812e320a56b"),
    ("alpha", "201"): (3638, "3e0cbdd82205a6e4a72d5a8f364b6b9a5868b109ead6b0acbe22c597bebfc2ef"),
}


@pytest.mark.parametrize("target, points", sorted(SWEEP_PINS))
def test_sweep_csv_is_pinned_byte_for_byte(target, points, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", target, "--points", points, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == SWEEP_PINS[target, points]


VERIFY_CONSTRUCTION_POST_AB_N20 = """\
construction/s0=0 input_valid: margin=4.440892e-16 pass
construction/s0=0 output_markov: margin=5.421011e-20 pass
construction/s0=0 horizon_consistency: margin=2.220446e-16 pass
construction/s0=1 input_valid: margin=4.440892e-16 pass
construction/s0=1 output_markov: margin=4.065758e-20 pass
construction/s0=1 horizon_consistency: margin=2.220446e-16 pass
result: pass
"""

# the Z/S family: its open-loop inputs and output law have structural zeros
VERIFY_CONSTRUCTION_POST_ALPHA_N20 = """\
construction/s0=0 input_valid: margin=1.776357e-15 pass
construction/s0=0 output_markov: margin=3.252607e-19 pass
construction/s0=0 horizon_consistency: margin=8.881784e-16 pass
construction/s0=1 input_valid: margin=1.776357e-15 pass
construction/s0=1 output_markov: margin=3.252607e-19 pass
construction/s0=1 horizon_consistency: margin=8.881784e-16 pass
result: pass
"""


@pytest.mark.parametrize(
    "family, want",
    [
        (["--family", "post-ab", "--a", "0.9", "--b", "0.7"], VERIFY_CONSTRUCTION_POST_AB_N20),
        (["--family", "post-alpha", "--alpha", "0.3"], VERIFY_CONSTRUCTION_POST_ALPHA_N20),
    ],
    ids=["post-ab", "post-alpha"],
)
def test_verify_construction_at_n20_is_pinned(family, want, capsys):
    assert main(["verify", "construction", *family, "--n", "20"]) == 0
    assert capsys.readouterr().out == want


def test_verify_construction_at_n20_holds_one_level_at_a_time(capsys):
    # its peak is the second open_loop_match's plus the first match's input;
    # holding every level of both input chains peaked at 64.3 MiB
    argv = ["verify", "construction", "--family", "post-ab", "--a", "0.9", "--b", "0.7", "--n", "20"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 50 * 2**20


def test_table1_json_format(tmp_path):
    out = tmp_path / "table.json"
    code = main(
        [
            "table1",
            "--max-m",
            "2",
            "--upper-bound-max-m",
            "0",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    import json

    rows = json.loads(out.read_text())
    assert rows[0]["m"] == 1
    assert rows[0]["upper_bound"] is None
    assert rows[1]["feedback_capacity"] == pytest.approx(0.8325, abs=5e-4)


def test_table1_check_fails_on_an_uncertified_upper_bound(monkeypatch, capsys):
    # 5 passes certify no upper-bound solve; m = 2 still lands within the
    # reference tolerance (0.856307 vs 0.8568), so only the cap can fail it
    budget = postcap.cli.OptimizerConfig
    monkeypatch.setattr(
        postcap.cli, "OptimizerConfig", lambda **kw: budget(**{**kw, "max_iterations": 5})
    )
    assert main(["table1", "--check", "--max-m", "2", "--upper-bound-max-m", "2"]) == 1
    captured = capsys.readouterr()
    for m in (1, 2):
        want = f"check failed: m={m} upper-bound solve stopped at the iteration cap (interval width "
        assert want in captured.err
    assert captured.out.splitlines()[0] == "m,upper_bound,scheme_rate,feedback_capacity"
    # without --check the same table still exits 0
    assert main(["table1", "--max-m", "2", "--upper-bound-max-m", "2"]) == 0
    assert capsys.readouterr().out == captured.out


def test_table1_oversized_upper_bound_exits_2_before_solving(capsys):
    # the lumped channel of m = 16 at n = 9 exceeds the library's size cap;
    # the caller takes that row first and raises before its first step, so
    # the children forked for the rows below are killed before they finish
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--n", "9", "--max-m", "16", "--upper-bound-max-m", "16"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 2.0
    assert "lumped channel would hold 6729540 entries (cap" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table1_oversized_horizon_exits_2_without_building_it(capsys):
    # the orbit count stops at the first level above the cap: neither a core
    # channel nor the (m + 1)^2 one-step matrices of m = 1024 are built
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--n", "1000000", "--max-m", "1024", "--upper-bound-max-m", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 2**20
    assert "entries (cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0", "--upper-bound-max-m", "0"], "--n must be at least 1"),
        (["--upper-bound-max-m", "-1"], "--upper-bound-max-m must be at least 0"),
    ],
    ids=["n-zero", "upper-bound-max-m-negative"],
)
def test_table1_rejects_bad_sizes_up_front(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # a 2 GiB stationary law for the largest m, 6.7 GiB of (a, b) grid,
        # 4e8 CSV lines
        ["table1", "--max-m", "268435456", "--upper-bound-max-m", "0"],
        ["verify", "inequalities", "--grid", "30000"],
        ["sweep", "ab", "--points", "20000"],
    ],
)
def test_oversized_request_exits_2_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 2**20
    assert "entries (cap 1048576)" in capsys.readouterr().err


def test_table1_checks_each_lumped_channel_once(monkeypatch, capsys):
    # each lumped channel checks its own size where it is built, and nothing
    # else checks it again; one CPU, so that every call is made in this process
    calls = []
    check = postcap.channels._check_lumped_size

    def counted(spec, n, s0):
        calls.append((spec.m, n, s0))
        return check(spec, n, s0)

    monkeypatch.setattr(postcap.channels, "_check_lumped_size", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["table1", "--n", "3", "--max-m", "4", "--upper-bound-max-m", "4"]) == 0
    assert sorted(calls) == [(2, 3, 0), (2, 3, 2), (4, 3, 0), (4, 3, 4)]


def test_table1_upper_bound_reaches_m8(capsys):
    assert main(["table1", "--n", "2", "--max-m", "8", "--upper-bound-max-m", "8"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert last[0] == "8"
    assert float(last[1]) > 0.0


def test_table1_check_at_another_horizon_keeps_the_width_and_closed_form_checks(monkeypatch, capsys):
    # the reference upper bounds are the n = 6 ones: at n = 4 the bounds are
    # larger (0.807805 vs 0.7918 at m = 1) and correct
    assert main(["table1", "--check", "--n", "4", "--max-m", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "1,0.807805,0.000000,0.759582"
    assert captured.err == ""
    budget = postcap.cli.OptimizerConfig
    monkeypatch.setattr(
        postcap.cli, "OptimizerConfig", lambda **kw: budget(**{**kw, "max_iterations": 5})
    )
    monkeypatch.setitem(postcap.cli.TABLE1_REFERENCE, 2, (0.0, 0.5, 0.8325))
    assert main(["table1", "--check", "--n", "4", "--max-m", "2"]) == 1
    err = capsys.readouterr().err
    assert "check failed: m=2 upper-bound solve stopped at the iteration cap" in err
    assert "check failed: m=2 scheme_rate 0.333333 vs 0.5" in err
    assert "upper_bound" not in err


@pytest.fixture
def child_signal(monkeypatch):
    """Two usable CPUs, and (wait, signal): wait() blocks the caller until a child has run signal()."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ready, done = os.pipe()

    def wait():
        assert select.select([ready], [], [], 30.0)[0], "no child claimed an item"

    yield wait, lambda: os.write(done, b"x")
    os.close(ready)
    os.close(done)


def _in_parent_after_a_child(wait, signal):
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            signal()
        elif item == 16:
            wait()
        return math.sqrt(item)

    return fn


def test_map_over_cpus_matches_the_serial_map(child_signal):
    wait, signal = child_signal
    items = [16, 9, 4, 1]
    assert _map_over_cpus(_in_parent_after_a_child(wait, signal), items) == {m: math.sqrt(m) for m in items}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_over_cpus_solves_again_the_rows_a_child_raised_on(child_signal):
    # the child raises and returns nothing: the caller solves its rows
    wait, signal = child_signal
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            signal()
            raise LookupError(f"row {item} failed in a child")
        if item == 16:
            wait()
        return math.sqrt(item)

    items = [16, 9, 4]
    assert _map_over_cpus(fn, items) == {m: math.sqrt(m) for m in items}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_over_cpus_raises_the_rows_own_exception(child_signal):
    # row 9 raises wherever it runs: first in the child, then in the caller
    wait, signal = child_signal
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            signal()
        elif item == 16:
            wait()
        if item == 9:
            raise LookupError(f"row {item} failed")
        return math.sqrt(item)

    with pytest.raises(LookupError, match=r"^row 9 failed$"):
        _map_over_cpus(fn, [16, 9, 4])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table1_solves_the_rows_of_a_child_killed_mid_row(child_signal, monkeypatch, tmp_path):
    # a child that dies by a signal returns nothing: the caller solves its rows
    wait, signal = child_signal
    parent, solve = os.getpid(), postcap.cli.upper_bound

    def upper_bound(spec, n, cfg):
        if os.getpid() != parent:
            signal()
            os.kill(os.getpid(), SIGKILL)
        elif spec.m == 4:
            wait()
        return solve(spec, n, cfg)

    monkeypatch.setattr(postcap.cli, "upper_bound", upper_bound)
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == 0
    assert out.read_text() == TABLE1_DEFAULT_CSV
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_over_cpus_keeps_the_pid_of_a_fork_that_warns(child_signal, monkeypatch):
    # Python >= 3.12 warns in the caller after forking while threads run;
    # under -W error that warning would raise with the child's pid lost
    wait, signal = child_signal
    real_fork, parent, pids, solved_here = os.fork, os.getpid(), [], []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    def fn(item):
        if os.getpid() != parent:
            signal()
        else:
            solved_here.append(item)
            if item == 16:
                wait()
        return math.sqrt(item)

    monkeypatch.setattr(os, "fork", fork)
    items = [16, 9, 4, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _map_over_cpus(fn, items) == {m: math.sqrt(m) for m in items}
    assert len(pids) == 1
    # the child's rows came back over its pipe
    assert len(solved_here) < len(items)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_map_over_cpus_kills_the_children_and_closes_the_pipes_when_the_caller_raises(child_signal):
    wait, signal = child_signal
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            signal()
            time.sleep(60)
        wait()
        raise KeyError(item)

    fds = sorted(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    with pytest.raises(KeyError):
        _map_over_cpus(fn, [16, 9, 4])
    assert time.monotonic() - start < 30
    assert sorted(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_over_cpus_with_one_cpu_never_forks(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no fork expected")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _map_over_cpus(math.sqrt, [16, 9, 4]) == {16: 4.0, 9: 3.0, 4: 2.0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _map_over_cpus(math.sqrt, [16]) == {16: 4.0}
    assert forks == []


@pytest.mark.parametrize("failure", ["oserror", "oserror-after-a-child"])
def test_map_over_cpus_serves_the_rest_when_a_fork_fails(failure, child_signal, monkeypatch):
    wait, signal = child_signal
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if failure == "oserror" or len(forks) == 2:
            raise OSError("fork failed")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fn = math.sqrt if failure == "oserror" else _in_parent_after_a_child(wait, signal)
    items = [16, 9, 4, 1]
    assert _map_over_cpus(fn, items) == {m: math.sqrt(m) for m in items}
    assert len(forks) == (1 if failure == "oserror" else 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table1_prints_the_same_with_one_and_two_cpus(monkeypatch, capsys):
    outs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert main(["table1", "--check", "--upper-bound-max-m", "16"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[5] == "16,1.386496,1.333333,1.536590"


def test_verify_inequalities(capsys):
    assert main(["verify", "inequalities", "--grid", "40"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out


def test_verify_kkt(capsys):
    assert main(["verify", "kkt", "--family", "post-alpha", "--alpha", "0.3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "kkt/interval_width" in out
    assert "result: pass" in out


def test_a_wide_interval_fails_both_feedback_checks(monkeypatch, capsys):
    # the DP's proven interval is the one certificate: its width is the margin
    # the value is n times the closed form, so only the certificate can fail
    value = 3 * postcap.closed_form.post_alpha_capacity(0.3).capacity_bits
    report = FeedbackReport(value, value + 3.5e-3 / math.log(2.0), False, 1e-7, 3.5e-3, 0.0)
    monkeypatch.setattr(postcap.cli, "_feedback_stages", lambda *args: (None, value, report))
    assert main(["verify", "kkt", "--alpha", "0.3", "--n", "3"]) == 1
    assert "kkt/interval_width: margin=3.500000e-03 FAIL" in capsys.readouterr().out
    assert main(["capacity", "post-alpha", "--alpha", "0.3", "--n", "3", "--numeric-check"]) == 1
    out = capsys.readouterr().out
    assert "certified: False" in out and "interval_width_nats: 3.500e-03" in out


def test_feedback_checks_build_no_kernel_and_no_dense_channel(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a feedback check built a kernel, a dense channel or a dense certificate")

    monkeypatch.setattr(postcap.channels, "_block_matrix", refuse)
    monkeypatch.setattr(postcap.optimize, "kkt_check", refuse)
    monkeypatch.setattr(postcap.optimize, "compose_causal", refuse)
    for argv in (
        ["capacity", "post-ab", "--a", "0.9", "--b", "0.7", "--numeric-check", "--n", "10"],
        ["capacity", "mary", "--m", "4", "--numeric-check", "--n", "4"],
        ["verify", "kkt", "--family", "post-ab", "--a", "0.6", "--b", "0.5", "--n", "10"],
    ):
        assert main(argv) == 0
    assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        # one stage above the old dense cross-check's horizons
        ["capacity", "post-ab", "--a", "0.9", "--b", "0.7", "--numeric-check", "--n", "11"],
        ["capacity", "mary", "--m", "4", "--numeric-check", "--n", "5"],
        ["verify", "kkt", "--family", "post-alpha", "--alpha", "0.3", "--n", "11"],
        # checked against the exact value after 10,000 Bellman steps
        ["capacity", "mary", "--m", "1", "--numeric-check", "--n", "10000"],
    ],
)
def test_feedback_checks_run_past_the_old_horizon_cap(argv, capsys):
    assert main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_oversized_feedback_check_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "mary", "--m", "1023", "--numeric-check", "--n", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 2**20
    assert "feedback stage laws would hold" in capsys.readouterr().err


def test_largest_mary_numeric_check_exits_2_before_a_class_matrix(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a class matrix was built")

    monkeypatch.setattr(postcap.channels.MaryPost, "class_matrices", property(refuse))
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "mary", "--m", "1048575", "--numeric-check"])
    assert exc.value.code == 2
    assert "feedback stage laws would hold" in capsys.readouterr().err


def test_verify_concavity(capsys):
    assert main(["verify", "concavity", "--n", "3", "--seed", "1", "--trials", "25"]) == 0
    assert "concavity/midpoint_concavity" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["concavity", "all"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_concavity_needs_a_trial(suite, trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("max_m", ["0", "-5"])
def test_table1_needs_a_row(max_m, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--check", "--max-m", max_m])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--max-m" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "kkt", "--n", "2"],
        ["capacity", "post-alpha", "--alpha", "0.3", "--numeric-check", "--n", "2"],
    ],
)
@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_tol_must_be_finite_and_non_negative(argv, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""


def test_config_flag_is_unrecognized(capsys):
    # before the command, argparse takes "x" for the command and rejects it
    for argv, message in (
        (["--config", "x", "capacity", "post-alpha", "--alpha", "0.5"], "invalid choice: 'x'"),
        (["capacity", "post-alpha", "--alpha", "0.5", "--config", "x"], "unrecognized arguments: --config"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_max_iterations_flag_is_unrecognized(capsys):
    # the feedback cross-checks run one fixed budget; argparse rejects the flag before any solve
    for argv in (
        ["capacity", "post-alpha", "--alpha", "0.5", "--numeric-check", "--max-iterations", "5"],
        ["verify", "kkt", "--max-iterations", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-iterations 5" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "post-ab", "--a", "0.5", "--b", "0.5001"],
        ["verify", "kkt", "--family", "post-ab", "--a", "0.5", "--b", "0.5001"],
    ],
)
def test_post_ab_next_to_the_degenerate_line_exits_0(argv):
    # 2^(h(b) / (a + b - 1)) alone overflows a float here
    assert main(argv) == 0


def test_verify_construction_next_to_the_degenerate_line_reports(capsys):
    argv = ["verify", "construction", "--family", "post-ab", "--a", "0.5", "--b", "0.5001"]
    assert main(argv) in (0, 1)
    assert "result: " in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "postcap.cli", "capacity", "post-alpha", "--alpha", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.321928" in proc.stdout


def test_import_leaves_scipy_special_unloaded():
    # every CLI call pays the import; scipy.special alone costs ~0.1 s and
    # scipy.sparse ~0.25 s, and the package needs neither
    code = "import sys, postcap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_numeric_check_gap_can_fail(capsys):
    # an impossible tolerance turns the numeric cross-check into exit 1
    code = main(
        ["capacity", "post-alpha", "--alpha", "0.5", "--numeric-check", "--n", "1", "--tol", "0"]
    )
    capsys.readouterr()
    assert code == 1


def test_verify_construction_oversized_exits_2(capsys):
    # n = 21 is the first horizon whose 2^n-entry vectors exceed the cap
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "construction", "--n", "21"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert "entries" in capsys.readouterr().err
    assert peak < 2**20


def test_verify_construction_builds_no_block_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("verify construction built a dense sequence-level matrix")

    monkeypatch.setattr(postcap.channels, "_block_matrix", refuse)
    argv = ["verify", "construction", "--family", "post-ab", "--a", "0.9", "--b", "0.7", "--n", "10"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "output_markov" in out
    assert "result: pass" in out


def test_table1_output_is_deterministic(tmp_path):
    first = tmp_path / "t1.csv"
    second = tmp_path / "t2.csv"
    args = ["table1", "--max-m", "2", "--upper-bound-max-m", "1"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
