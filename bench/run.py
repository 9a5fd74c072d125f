#!/usr/bin/env python3
"""Closed-loop benchmark of the vertexcalc command line.

    python3 bench/run.py --workload {replay,sweep,verdict} --seed N \\
                         --seconds S --trace {0,1}

One client drives ``vertexcalc.cli.main`` in this process and sends the next
call only after the previous one has returned.  Every report is checked: the
exit code, the verdicts against the corpus's curated answers, and the report
bytes against ``bench/pins.json`` (or, for inputs no pin covers, against the
first time the same call ran).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it sends each call traced and then
untraced, for half the time, and reports the per-layer metrics and the
tracing overhead.  End-to-end times are scaled to a nominal machine speed
(see SpeedProbe).  Lines starting with '#' describe the run; the last
line of standard output is one JSON object {correct, attempted, failed,
metrics}.  bench/README.md explains the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("replay", "sweep", "verdict")
SETUP_REPEATS = 5
# replay's instance seeds are (seed + i) mod REPLAY_POOL: every run measures
# the same pinned instances, rotated by the seed, and a faster program
# measures them again rather than new ones
REPLAY_POOL = 128
DEFAULT_SEED = 0
TAIL_BEYOND = 10
# Times are scaled to a nominal machine speed, measured by a probe that a
# timer runs (SpeedProbe): on a shared 2-vCPU host the same code ran up to
# 25% slower for minutes at a time, which no run length averages away.
NOMINAL_PROBE_S = 0.005
PROBE_EVERY_S = 0.1

sys.path[:0] = [SRC, HERE]
import tracer as tracing  # noqa: E402


class Member(NamedTuple):
    name: str
    path: str
    command: str        # "check" or "check-module"
    expected: dict      # axiom -> curated verdict


class Call(NamedTuple):
    kind: str           # "replay", "verdict", "matrix" or "theorem"
    key: str            # names the inputs; equal keys must give equal bytes
    argv: tuple
    ops: tuple          # the ops this call stands for (instances or members)


# ---------------------------------------------------------------------------
# set-up

def import_cli():
    for name in [n for n in sys.modules
                 if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(tracing.PACKAGE + ".cli")


def invoke(cli, argv):
    """(exit code, standard output) of one CLI call; None for a crash."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc(file=err)
            code = None
    if code is None:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def expected_verdict(tags, axiom, has_vacuum, vacuum_axioms, broken):
    if "mutant" in tags:
        return "FAIL" if axiom in broken else "PASS"
    if "valid" not in tags:
        raise ValueError(f"corpus member with tags {tags} has no curated answer")
    if not has_vacuum and axiom in vacuum_axioms:
        return "UNTESTED"
    # the vacuum-free members are the ideals t*A_k; Y(t^(k-1), x) acts as
    # zero on them, so u -> Y(u, x) is not injective there
    if not has_vacuum and axiom == "injectivity":
        return "FAIL"
    return "PASS"


def load_members(corpus_dir):
    pkg = tracing.PACKAGE
    configio = sys.modules[f"{pkg}.configio"]
    corpus = importlib.import_module(f"{pkg}.corpus")
    structures = sys.modules[f"{pkg}.structures"]
    modules = sys.modules[f"{pkg}.modules"]
    broken = dict(corpus.mutant_expected_failures())
    broken.update(corpus.module_mutant_expected_failures())
    members = []
    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.json"))):
        if configio.is_module_config(configio.load_json(path)):
            m = configio.load_module(path)
            command, axioms = "check-module", modules.MODULE_AXIOMS
            vacuum_axioms = modules.VACUUM_MODULE_AXIOMS
            has_vacuum = m.over.vacuum is not None
        else:
            m = configio.load_structure(path)
            command, axioms = "check", structures.AXIOMS
            vacuum_axioms = structures.VACUUM_AXIOMS
            has_vacuum = m.vacuum is not None
        expected = {a: expected_verdict(m.tags, a, has_vacuum, vacuum_axioms,
                                        broken.get(m.name, ()))
                    for a in axioms}
        members.append(Member(m.name, path, command, expected))
    return members


def set_up(corpus_dir):
    """Import the package, emit the built-in corpus, load every member."""
    cli = import_cli()
    shutil.rmtree(corpus_dir, ignore_errors=True)
    code, _ = invoke(cli, ["examples", "emit", "--out", corpus_dir])
    if code != 0:
        raise RuntimeError(f"examples emit exited with {code}")
    return cli, load_members(corpus_dir)


# ---------------------------------------------------------------------------
# workloads: endless streams of requests, each a tuple of CLI calls

def replay_requests(seed, members, corpus_dir):
    i = 0
    while True:
        s = (seed + i) % REPLAY_POOL
        argv = ("replay-elem", "--n", "1", "--seed", str(s), "--format", "machine")
        yield (Call("replay", f"replay/{s}", argv, (f"instance-{s}",)),)
        i += 1


def sweep_requests(seed, members, corpus_dir):
    structs = tuple(m.name for m in members if m.command == "check")
    mods = tuple(m.name for m in members if m.command == "check-module")
    request = (
        Call("matrix", "implication-matrix",
             ("implication-matrix", corpus_dir, "--format", "machine"), structs),
        Call("theorem", "main-theorem",
             ("main-theorem", corpus_dir, "--format", "machine"), mods),
    )
    while True:
        yield request


def verdict_requests(seed, members, corpus_dir):
    """Every (member, axiom) pair once per pass, in a fresh seeded order."""
    deck = [(m, a) for m in members for a in m.expected]
    rng = random.Random(seed)
    while True:
        rng.shuffle(deck)
        for m, axiom in deck:
            argv = (m.command, m.path, "--axiom", axiom, "--format", "machine")
            yield (Call("verdict", f"{m.name}/{axiom}", argv, (m.name,)),)


REQUESTS = {"replay": replay_requests, "sweep": sweep_requests,
            "verdict": verdict_requests}


# ---------------------------------------------------------------------------
# correctness gate

def bad_ops(call, code, text, members):
    """The ops of one call whose output contradicts the expected answer.

    The expected exit code is 0, or 1 for a verdict that should FAIL, so a
    crash (None) or exit 2 (an inconsistency) always fails.
    """
    everything = set(call.ops)
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError, TypeError):
        return everything
    if call.kind == "verdict":
        member = members[call.ops[0]]
        axiom = call.key.rsplit("/", 1)[1]
        want = member.expected[axiom]
        if code != (1 if want == "FAIL" else 0):
            return everything
        if [(r["id"], r["verdict"]) for r in records] != [(call.key, want)]:
            return everything
        return set()
    if code != 0:
        return everything
    if call.kind == "replay":
        if not records or any(r["verdict"] not in ("PASS", "UNTESTED")
                              for r in records):
            return everything
        return set()
    # matrix / theorem rows: "<member>/<row>", premises carry checker verdicts
    seen, bad = set(), set()
    for rec in records:
        name = rec["id"].split("/", 1)[0]
        seen.add(name)
        member = members.get(name)
        if member is None or rec["verdict"] not in ("PASS", "UNTESTED"):
            bad.add(name)
            continue
        for axiom, verdict in rec["witness"].items():
            if axiom in member.expected and verdict != member.expected[axiom]:
                bad.add(name)
    return bad | (everything - seen)


class Digests:
    """Report bytes must match the pin, or else the first run of the call."""

    def __init__(self, pins):
        self.pins = pins
        self.first = {}
        self.pinned = self.repeated = 0

    def matches(self, key, text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if key in self.pins:
            self.pinned += 1
            return digest == self.pins[key]
        if key in self.first:
            self.repeated += 1
        return digest == self.first.setdefault(key, digest)


def probe():
    """Seconds taken by a fixed piece of pure-Python exact arithmetic.

    It shares no code with the program, so its time follows only the speed
    the machine gives this process.
    """
    t0 = perf_counter()
    acc = {}
    for i in range(1, 1200):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i, 7 + i % 5)
    return perf_counter() - t0


class SpeedProbe:
    """Runs ``probe()`` every PROBE_EVERY_S from a SIGALRM timer, in the main
    thread, and scales timed intervals to the nominal machine speed.

    A timing is (seconds, start, end): the wall time of an interval minus
    the probes run inside it, and the interval's ends.  While the timer is
    not running there are no probes, and timings are not scaled.
    """

    def __init__(self):
        self.at = []        # perf_counter() at the end of each probe
        self.times = []     # each probe's seconds
        self.spent = 0.0

    def _tick(self, signum, frame):
        seconds = probe()
        self.at.append(perf_counter())
        self.times.append(seconds)
        self.spent += seconds

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self):
        return perf_counter(), self.spent

    def timing(self, started):
        t0, spent0 = started
        t1 = perf_counter()
        return t1 - t0 - (self.spent - spent0), t0, t1

    def nominal(self, seconds, t0, t1):
        """``seconds`` at the nominal speed, judged by the probes that ran
        within PROBE_EVERY_S of the interval [t0, t1]."""
        if not self.times:
            return seconds
        lo = bisect.bisect_left(self.at, t0 - PROBE_EVERY_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_EVERY_S)
        around = self.times[lo:hi] or self.times[max(lo - 1, 0):lo + 1]
        return seconds * NOMINAL_PROBE_S / statistics.fmean(around)


class Loop:
    """One closed-loop client and its tallies."""

    def __init__(self, cli, members, digests, speed):
        self.cli = cli
        self.members = {m.name: m for m in members}
        self.digests = digests
        self.speed = speed
        self.tracer = None      # set while a request is sent traced
        self.attempted = self.failed = 0
        self.notes = []

    def send(self, request):
        """Send one request; return its timing (see SpeedProbe)."""
        outputs = []
        started = self.speed.start()
        for call in request:
            if self.tracer is not None:
                self.tracer.new_process_scope()
            outputs.append(invoke(self.cli, call.argv))
        timing = self.speed.timing(started)
        for call, (code, text) in zip(request, outputs):
            bad = bad_ops(call, code, text, self.members)
            if not self.digests.matches(call.key, text):
                bad = set(call.ops)
            self.attempted += len(call.ops)
            self.failed += len(bad)
            if bad and len(self.notes) < 5:
                self.notes.append(f"{call.key}: exit {code}, failed {sorted(bad)}")
        return timing

    def run_for(self, requests, seconds):
        """Send requests until ``seconds`` have passed, at least one; return
        the requests sent and their timings."""
        done, timings = [], []
        gc.collect()
        deadline = perf_counter() + seconds
        while True:
            request = next(requests)
            timings.append(self.send(request))
            done.append(request)
            if perf_counter() >= deadline:
                return done, timings


# ---------------------------------------------------------------------------
# metrics

def ops_in(done):
    return sum(len(call.ops) for request in done for call in request)


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    or the maximum when that percentile would lie below p90."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k + 1 < 0.9 * n:
        return ordered[-1], f"the maximum of {n} samples (fewer than 100)"
    return ordered[k], (f"p{100.0 * (k + 1) / n:.1f} "
                        f"({TAIL_BEYOND} of {n} samples beyond)")


def timed(ops, setups, latencies):
    """ops_per_s, p50_ms, tail_ms and setup_s from seconds of one kind."""
    tail_s, tail_note = tail(latencies)
    return {
        "ops_per_s": ops / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
    }, tail_note


def end_to_end(speed, ops, setups, timings):
    """The end-to-end metrics, times scaled to the nominal machine speed."""
    metrics, tail_note = timed(ops, [speed.nominal(*t) for t in setups],
                               [speed.nominal(*t) for t in timings])
    raw, _ = timed(ops, [t[0] for t in setups], [t[0] for t in timings])
    units = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s"}
    out = {name: (value, units[name]) for name, value in metrics.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss_mb, "MB")
    slowdown = sum(t[0] for t in timings) / sum(speed.nominal(*t) for t in timings)
    notes = [f"latency samples: {len(timings)}; tail_ms is {tail_note}",
             f"machine slowdown {slowdown:.4f} from {len(speed.times)} probes "
             f"of nominally {NOMINAL_PROBE_S} s; unscaled: "
             + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())]
    return out, notes


SPAN_FAMILIES = (
    "scalars.binom", "series.apply_delta", "series.taylor_substitute",
    "series.multiply", "series.binomial_power", "deltacalc.window_coeffs",
    "deltacalc.prove_identity", "rationalforms.check_A",
    "rationalforms.find_pole_witness", "rationalforms.reconstruct_form",
    "rationalforms.check_EFG", "rationalforms.generate_instance",
    "configio.load_structure", "configio.load_module",
    "configio.machine_report", "cli.build_parser",
)
PRODUCT_FAMILIES = ("structures.compose_y", "structures.iterate_y",
                    "modules.compose_yw", "modules.iterate_yw")
JACOBI = {"structures.check_axiom[jacobi]": "structures.jacobi",
          "modules.check_module_axiom[m_jacobi]": "modules.m_jacobi"}


def per_layer(tr, ops, overhead):
    pkg = tracing.PACKAGE
    implications = sys.modules[f"{pkg}.rationalforms"].IMPLICATIONS
    axioms = sys.modules[f"{pkg}.structures"].AXIOMS
    module_axioms = sys.modules[f"{pkg}.modules"].MODULE_AXIOMS
    totals = tr.totals()

    def total(label, i):
        return totals.get(label, (0, 0.0, 0.0))[i]

    m = {}
    for fam in SPAN_FAMILIES:
        m[f"{fam}.calls"] = (total(fam, 0) / ops, "calls/op")
        m[f"{fam}.self_s"] = (total(fam, 2) / ops, "s/op")
    vec = [f"scalars.Vec.{op}" for op in tracing.VEC_OPS]
    m["scalars.Vec.ops"] = (sum(total(v, 0) for v in vec) / ops, "calls/op")
    m["scalars.Vec.self_s"] = (sum(total(v, 2) for v in vec) / ops, "s/op")
    m["series.WindowedSeries.built"] = (
        tr.counts["series.WindowedSeries.built"] / ops, "count/op")

    replay_labels = {f"rationalforms.replay_implication[{w}]": w
                     for w in implications}
    for label, which in replay_labels.items():
        m[f"rationalforms.replay.{which}.s"] = (total(label, 1) / ops, "s/op")
    instances = total("rationalforms.generate_instance", 0)
    in_replay = sum(1 for i in tr.spans_of("rationalforms.check_A")
                    if tr.ancestor(i, replay_labels))
    m["rationalforms.check_A.per_instance"] = (
        in_replay / instances if instances else 0.0, "ratio")
    searches = total("rationalforms.find_pole_witness", 0)
    tried = sum(1 for i in tr.spans_of("series.multiply")
                if tr.ancestor(i, {"rationalforms.find_pole_witness"}))
    m["rationalforms.find_pole_witness.m_tried"] = (
        tried / searches if searches else 0.0, "ratio")

    for a in axioms:
        m[f"structures.check.{a}.s"] = (
            total(f"structures.check_axiom[{a}]", 1) / ops, "s/op")
    for a in module_axioms:
        m[f"modules.check.{a}.s"] = (
            total(f"modules.check_module_axiom[{a}]", 1) / ops, "s/op")
    for fam in PRODUCT_FAMILIES:
        m[f"{fam}.calls"] = (total(fam, 0) / ops, "calls/op")
        m[f"{fam}.distinct"] = (tr.distinct.get(fam, 0) / ops, "count/op")

    split = {f"{side}.{route}": 0.0 for side in JACOBI.values()
             for route in ("symbolic_s", "series_s")}
    for label, route in (("structures._jacobi_symbolic_zero", "symbolic_s"),
                         ("rationalforms.check_A", "series_s")):
        for i in tr.spans_of(label):
            side = tr.ancestor(i, JACOBI)
            if side is not None:
                split[f"{JACOBI[side]}.{route}"] += tr.end[i] - tr.start[i]
    for name, seconds in split.items():
        m[name] = (seconds / ops, "s/op")

    m["configio.report_bytes"] = (
        tr.counts["configio.report_bytes"] / ops, "bytes/op")
    m["trace.overhead"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------

def machine_info():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git": git_sha()}


def git_sha():
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins():
    try:
        with open(PINS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def set_up_repeatedly(corpus_dir, speed):
    """Set up SETUP_REPEATS times; return their timings and the last
    set-up's CLI and members."""
    timings = []
    for _ in range(SETUP_REPEATS):
        started = speed.start()
        cli, members = set_up(corpus_dir)
        timings.append(speed.timing(started))
    return timings, cli, members


def traced(loop, requests, seconds, workload):
    """For half of ``seconds``, send each request traced and then untraced,
    so that both see the same machine speed; return the per-layer metrics,
    notes and the wrappers left behind."""
    tr = tracing.Tracer()
    done, traced_s, untraced_s = [], 0.0, 0.0
    gc.collect()
    deadline = perf_counter() + seconds / 2
    while not done or perf_counter() < deadline:
        request = next(requests)
        missing = tr.install(sys.modules)
        loop.tracer = tr
        try:
            traced_s += loop.send(request)[0]
        finally:
            tr.uninstall()
            loop.tracer = None
        untraced_s += loop.send(request)[0]
        done.append(request)
    leftover = tracing.leftover_wrappers(sys.modules)
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{workload}.bin")
    tr.write(spans_path)
    metrics = per_layer(tr, ops_in(done), traced_s / untraced_s)
    notes = [f"{len(done)} requests took {traced_s:.3f} s traced and "
             f"{untraced_s:.3f} s untraced; {len(tr.start)} spans written "
             f"to {os.path.relpath(spans_path, ROOT)}"]
    if missing:
        notes.append(f"not in the program, so not traced: {missing}")
    if leftover:
        notes.append(f"wrappers left after tracing: {leftover}")
    return metrics, notes, leftover


def run(workload, seed, seconds, trace, corpus_dir):
    """Run one workload; return (result dict, lines describing the run)."""
    speed = SpeedProbe()
    leftover = []
    # a traced run takes no probes, which would land inside its spans
    with contextlib.nullcontext() if trace else speed.running():
        setups, cli, members = set_up_repeatedly(corpus_dir, speed)
        digests = Digests(load_pins().get(workload, {}))
        requests = REQUESTS[workload](seed, members, corpus_dir)
        loop = Loop(cli, members, digests, speed)
        notes = [f"setup_s: median of {SETUP_REPEATS} set-ups (import, emit "
                 f"and load {len(members)} corpus members)"]
        if trace:
            metrics, more, leftover = traced(loop, requests, seconds, workload)
        else:
            done, timings = loop.run_for(requests, seconds)
            metrics, more = end_to_end(speed, ops_in(done), setups, timings)
    notes += more
    notes.append(f"report bytes: {digests.pinned} checked against pins, "
                 f"{digests.repeated} against an earlier pass")
    share = loop.failed / loop.attempted
    notes.append(f"failed_share: {loop.failed}/{loop.attempted} = {share:g}")
    notes += loop.notes
    result = {
        "correct": not leftover and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        package = importlib.import_module(tracing.PACKAGE)
    except ImportError as err:
        print(f"cannot import {tracing.PACKAGE} from {SRC}: {err}", file=sys.stderr)
        return 2
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        print(f"{tracing.PACKAGE} was imported from {package.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    corpus_dir = os.path.join(WORK, f"corpus-{os.getpid()}")
    try:
        result, notes = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    info = machine_info()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; closed loop, 1 client")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for note in notes:
        print("# " + note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
