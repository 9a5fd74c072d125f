"""Acceptance suite: one test per exit criterion, exact tolerances, pinned
time budgets.  Each test prints a single pass/fail line (visible with -s or
in the captured-output section)."""
import time

from conftest import _weak_difference, minimal_pole_order, witness_is_valid

from vertexcalc.cli import main
from vertexcalc.corpus import (
    family,
    full_corpus,
    full_module_corpus,
    mutant_expected_failures,
    mutants,
)
from vertexcalc.deltacalc import (
    DeltaExpr,
    Term,
    identity_lhs,
    normalize,
    prove_identity,
    taylor_shift,
    window_coeffs,
)
from vertexcalc.rationalforms import (
    check_A,
    find_pole_witness,
    generate_instance,
    reconstruct_form,
)
from vertexcalc.structures import (
    MemberStacks,
    check_all,
    check_axiom,
    replay_corpus,
)


def _report(n, ok, dt, detail):
    line = f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_1_symbolic_delta_proofs():
    t0 = time.time()
    two = prove_identity("two-term")
    three = prove_identity("three-term")
    ok = (two.pairs == [(1, 4), (2, 3)]
          and three.pairs == [(1, 6), (2, 4), (3, 5)]
          and two.residual is None and three.residual is None)
    dt = time.time() - t0
    _report(1, ok and dt < 1.0, dt,
            "LHS reduces to zero: 2 cancel pairs (1,4),(2,3) and 3 pairs "
            "(1,6),(2,4),(3,5), residual 0, tolerance zero")


def test_criterion_2_window_oracle_cross_validation():
    t0 = time.time()
    w = {v: (-6, 6) for v in ("x0", "x1", "x2")}
    monomials = 13 ** 3
    ok = True
    for which in ("two-term", "three-term"):
        out = window_coeffs(identity_lhs(which), w)
        ok = ok and out == {}
    dt = time.time() - t0
    _report(2, ok and dt < 10.0, dt,
            f"both identity LHS evaluate to 0 on all {monomials} exponent "
            "triples in [-6,6]^3, exactly")


def test_criterion_3_reassociation_laws():
    t0 = time.time()
    ok = True
    w2 = {"x": (-6, 6), "y": (-6, 6)}
    w3 = {"x": (-6, 6), "y": (-6, 6), "z": (-6, 6)}
    for n in range(-4, 5):
        if n == 0:
            continue
        e = DeltaExpr([Term(1, (("x", n),))], ("x", "y", "z"))
        ab_c = taylor_shift(taylor_shift(e, "x", (1, "y")), "x", (1, "z"))
        a_bc = taylor_shift(taylor_shift(e, "x", (1, "z")), "x", (1, "y"))
        ok = ok and normalize(ab_c).terms == normalize(a_bc).terms
        ok = ok and window_coeffs(ab_c - a_bc, w3) == {}
        shifted = taylor_shift(taylor_shift(e, "x", (1, "y")), "x", (-1, "y"))
        plain = normalize(shifted)
        ok = ok and plain.terms == normalize(e).terms
        ok = ok and window_coeffs(shifted - e, w2) == {}
    dt = time.time() - t0
    _report(3, ok, dt,
            "((x+y)+z)^n = (x+(y+z))^n and ((x+y)-y)^n = x^n for n in [-4,4], "
            "by normal form and on the [-6,6] window, exactly")


def test_criterion_4_borcherds_family_axioms():
    t0 = time.time()
    ok = True
    detail = []
    for S in family():
        verdicts = check_all(S)
        if not all(r.verdict == "PASS" for r in verdicts.values()):
            ok = False
            detail.append(f"{S.name} has non-PASS verdicts")
        wc = verdicts["weak_comm"]
        if any(m != 0 for m in wc.witnesses["min_m"].values()):
            ok = False
            detail.append(f"{S.name} weak_comm minimal m != 0")
        N, stacks = 8, MemberStacks(S)
        for u in S.basis:
            for v in S.basis:
                for w in S.basis:
                    formula = {
                        "weak_comm": minimal_pole_order(S, u, v),
                        "weak_assoc": minimal_pole_order(S, u, w),
                        "weak_skew_assoc": minimal_pole_order(S, v, w),
                    }
                    for axiom, mf in formula.items():
                        d, factor, b = _weak_difference(S, axiom, u, v, w, N, stacks)
                        if not witness_is_valid(d, factor, mf, b):
                            ok = False
                            detail.append(f"{S.name} formula witness invalid")
                        searched = next(
                            m for m in range(mf + 1)
                            if witness_is_valid(d, factor, m, b))
                        if searched > mf:
                            ok = False
    dt = time.time() - t0
    _report(4, ok and dt < 10.0, dt,
            "k=2..5: twelve axioms PASS, weak-commutativity minimal m = 0 on "
            "every pair, least-power formula is a valid witness with searched "
            f"minimum below it{'; ' + ';'.join(detail) if detail else ''}")


def test_criterion_5_randomized_implication_replays():
    t0 = time.time()
    failures = []
    for seed in range(100):
        inst = generate_instance(seed, N=8, max_deg=4, max_pole=3)
        okA, wit = check_A(inst, 8)
        if not okA:
            failures.append((seed, "A", wit))
            continue
        m_bound = max(inst.form.a, inst.form.b, inst.form.c) + 2
        for kind, pole in (("m1", inst.form.a), ("m2", inst.form.b),
                           ("m3", inst.form.c)):
            m = find_pole_witness(inst, kind, m_bound, 8)
            if m is None or m > pole + 2:
                failures.append((seed, kind, m))
                continue
            # raises ConsistencyViolationError on re-expansion mismatch
            reconstruct_form(inst, kind, m, 8)
    dt = time.time() - t0
    ok = not failures and dt < 30.0
    _report(5, ok, dt,
            "100 seeded rational-form instances (deg<=4, poles<=3): "
            "(E)&(F) => (A) on window 8; witnesses m <= pole + 2 for "
            "(B),(C),(D); reconstructed numerators re-expand exactly; "
            f"zero conclusion failures{failures[:3] if failures else ''}")


def test_criterion_6_implication_matrix_consistency():
    t0 = time.time()
    corpus = full_corpus()
    rows = replay_corpus(corpus)  # raises on any violation
    verdicts = {r["verdict"] for r in rows}
    ok = verdicts <= {"PASS", "UNTESTED"} and len(corpus) == 18
    expected = mutant_expected_failures()
    for S in mutants():
        verdict_map = check_all(S)
        named = expected[S.name]
        if not named or any(verdict_map[a].verdict != "FAIL" for a in named):
            ok = False
        if not all(verdict_map[a].witnesses for a in named):
            ok = False
    dt = time.time() - t0
    _report(6, ok, dt,
            f"{len(rows)} matrix rows over 18 members: zero premises-pass/"
            "conclusion-fails events; every curated mutant fails its named "
            "axioms with concrete witnesses, exactly")


def test_criterion_7_main_theorem_harness():
    t0 = time.time()
    corpus = full_module_corpus()
    rows = replay_corpus(corpus)  # raises on any asymmetry
    eq_rows = [r for r in rows if r["row"].startswith("m-main-equivalence")]
    ok = len(corpus) == 17 and len(eq_rows) == 2 * len(corpus)
    dt = time.time() - t0
    _report(7, ok, dt,
            "module corpus (12 regular/ideal/quotient modules + 5 mutants): "
            "verdict of {minors + m_weak_assoc} equals verdict of m_jacobi, "
            "likewise for m_weak_skew_assoc, on every member, exactly")


def test_criterion_8_determinism_and_budget(tmp_path):
    t0 = time.time()
    corpus_dir = tmp_path / "corpus"
    assert main(["examples", "emit", "--out", str(corpus_dir)]) == 0

    def run_suite(tag):
        reports = []
        jobs = [
            (["--seed", "99", "--format", "machine", "prove-deltas"], 0),
            (["--seed", "99", "--format", "machine", "replay-elem", "--n", "10"], 0),
            (["--seed", "99", "--format", "machine", "check",
              str(corpus_dir / "borcherds-k4.json")], 0),
            (["--seed", "99", "--format", "machine", "check",
              str(corpus_dir / "mutant-pole.json")], 1),
            (["--seed", "99", "--format", "machine", "check-module",
              str(corpus_dir / "regular-module-k3.module.json")], 0),
            (["--seed", "99", "--format", "machine", "implication-matrix",
              str(corpus_dir)], 0),
            (["--seed", "99", "--format", "machine", "main-theorem",
              str(corpus_dir)], 0),
        ]
        for i, (argv, want_rc) in enumerate(jobs):
            out = tmp_path / f"{tag}-{i}.json"
            rc = main(argv + ["--out", str(out)])
            assert rc == want_rc, (argv, rc)
            reports.append(out.read_bytes())
        return b"\n".join(reports)

    first = run_suite("a")
    second = run_suite("b")
    dt = time.time() - t0
    ok = first == second and dt < 60.0
    _report(8, ok, dt,
            "two full-suite runs with seed 99 produce byte-identical machine "
            f"reports ({len(first)} bytes); wall-clock under 60 s")
