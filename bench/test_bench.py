"""Tests of the benchmark itself: python3 -m pytest -q bench

They are kept out of the package's own suite (pyproject's testpaths), since
they run the workloads for a few seconds each.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, trace, seed=3, seconds=0.5):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_named_metric(workload):
    names = {m["name"] for m in spec()["workloads"]}
    assert workload in names
    for trace, family in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec()[family]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        if family == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_replay_trace_counts():
    metrics = bench("replay", trace=1, seed=0)["metrics"]
    assert metrics["deltacalc.window_coeffs.calls"]["value"] == 0
    assert metrics["rationalforms.check_A.per_instance"]["value"] == 6
    assert metrics["rationalforms.check_A.calls"]["value"] > 0


def test_wrappers_are_gone_after_tracing(tmp_path):
    cli, _ = run.set_up(str(tmp_path / "corpus"))
    rf = sys.modules["vertexcalc.rationalforms"]
    structures = sys.modules["vertexcalc.structures"]
    vec = sys.modules["vertexcalc.scalars"].Vec
    originals = (rf.check_A, structures.check_A, vec.__add__)
    tr = tracer.Tracer()
    tr.install(sys.modules)
    try:
        leftover = tracer.leftover_wrappers(sys.modules)
        assert "vertexcalc.rationalforms.check_A" in leftover
        assert "vertexcalc.structures.check_A" in leftover
        assert "vertexcalc.scalars.Vec.__add__" in leftover
        code, _ = run.invoke(cli, ["replay-elem", "--n", "1", "--seed", "2",
                                   "--format", "machine"])
        assert code == 0
    finally:
        tr.uninstall()
    assert tracer.leftover_wrappers(sys.modules) == []
    assert originals == (rf.check_A, structures.check_A, vec.__add__)
    assert tr.spans_of("rationalforms.check_A")


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    inner = tr._wrap(lambda: sum(range(20000)), "inner")
    outer = tr._wrap(lambda: inner() + inner(), "outer")
    outer()
    totals = tr.totals()
    calls, incl, self_s = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert self_s == pytest.approx(incl - totals["inner"][1])
    assert tr.ancestor(tr.spans_of("inner")[0], {"outer"}) == "outer"


def test_gate_flags_wrong_verdicts_and_changed_bytes():
    member = run.Member("m", "m.json", "check",
                        {"jacobi": "FAIL", "weak_comm": "PASS"})
    members = {"m": member}
    call = run.Call("verdict", "m/jacobi", (), ("m",))
    report = {"records": [{"id": "m/jacobi", "verdict": "FAIL"}]}
    assert run.bad_ops(call, 1, json.dumps(report), members) == set()
    report["records"][0]["verdict"] = "PASS"
    assert run.bad_ops(call, 0, json.dumps(report), members) == {"m"}
    assert run.bad_ops(call, 2, "", members) == {"m"}
    rows = run.Call("matrix", "implication-matrix", (), ("m",))
    row = {"id": "m/row", "verdict": "UNTESTED",
           "witness": {"jacobi": "PASS"}}
    assert run.bad_ops(rows, 0, json.dumps({"records": [row]}), members) == {"m"}
    digests = run.Digests({"k": "0" * 64})
    assert not digests.matches("k", "report")
    assert digests.matches("other", "a") and not digests.matches("other", "b")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_timings_scale_by_the_probes_around_them():
    speed = run.SpeedProbe()
    assert speed.nominal(1.0, 0.0, 1.0) == 1.0
    nominal = run.NOMINAL_PROBE_S
    speed.at = [1.0, 2.0, 3.0, 10.0]
    speed.times = [2 * nominal, 2 * nominal, 4 * nominal, nominal]
    assert speed.nominal(1.0, 1.05, 1.95) == pytest.approx(0.5)
    # no probe within reach: the nearest probe on each side
    assert speed.nominal(1.0, 2.5, 2.6) == pytest.approx(1 / 3)
    assert speed.nominal(1.0, 9.95, 10.5) == pytest.approx(1.0)
    speed = run.SpeedProbe()
    with speed.running():
        started = speed.start()
        while len(speed.times) < 2:
            pass
        seconds, t0, t1 = speed.timing(started)
    assert 0 < seconds < t1 - t0
