import hashlib
import json
import os
import subprocess
import sys

import pytest
from conftest import chain, double_first_coefficient

from vertexcalc import configio, structures
from vertexcalc.cli import build_parser, main
from vertexcalc.corpus import borcherds_structure, make_module, mutants
from vertexcalc.errors import ConfigError, WindowUnderflowError
from vertexcalc.structures import AXIOMS, MODULE_AXIOMS


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    rc = main(["examples", "emit", "--out", str(path)])
    assert rc == 0
    return path


def test_prove_deltas_exit_zero(capsys):
    assert main(["prove-deltas"]) == 0
    out = capsys.readouterr().out
    assert "two-term" in out and "three-term" in out


def test_check_valid_structure_exit_zero(corpus_dir, capsys):
    rc = main(["check", str(corpus_dir / "borcherds-k4.json")])
    capsys.readouterr()
    assert rc == 0


def test_check_mutant_exits_one_with_witness(corpus_dir, capsys):
    rc = main(["check", str(corpus_dir / "mutant-pole.json"),
               "--format", "machine"])
    out = capsys.readouterr().out
    assert rc == 1
    data = json.loads(out)
    fails = [r for r in data["records"] if r["verdict"] == "FAIL"]
    assert fails and all(r["witness"] for r in fails)


def test_check_missing_file_exits_three(capsys):
    rc = main(["check", "/nonexistent/path.json"])
    capsys.readouterr()
    assert rc == 3


def test_check_module_exit_zero(corpus_dir, capsys):
    rc = main(["check-module", str(corpus_dir / "regular-module-k3.module.json")])
    capsys.readouterr()
    assert rc == 0


def test_module_mutant_exits_one(corpus_dir, capsys):
    rc = main(["check-module",
               str(corpus_dir / "wmutant-iterate-shift.module.json")])
    capsys.readouterr()
    assert rc == 1


def test_implication_matrix_and_main_theorem(corpus_dir, capsys):
    assert main(["implication-matrix", str(corpus_dir)]) == 0
    assert main(["main-theorem", str(corpus_dir)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["implication-matrix", "main-theorem"])
def test_a_corpus_path_that_is_no_directory_is_named(corpus_dir, tmp_path, capsys,
                                                     command):
    # a config file or a missing path given for the corpus directory is
    # refused as no directory, not as a directory without configs
    for path in (corpus_dir / "borcherds-k3.json", tmp_path / "missing"):
        assert main([command, str(path)]) == 3, path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {path} is not a directory\n"


def test_sweep_reports_match_the_benchmark_pins(corpus_dir, capsys):
    # the two corpus-wide machine reports are byte-identical to the ones the
    # benchmark pins in bench/pins.json, so report drift fails here too
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "pins.json")) as fh:
        pins = json.load(fh)["sweep"]
    for command in ("implication-matrix", "main-theorem"):
        capsys.readouterr()
        assert main([command, str(corpus_dir), "--format", "machine"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins[command]


def test_verdict_and_replay_reports_match_the_benchmark_pins(corpus_dir, capsys):
    # every single-axiom check / check-module report and every default-flag
    # replay-elem report is byte-identical to its pin in bench/pins.json
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "pins.json")) as fh:
        pins = json.load(fh)
    calls = []
    for key, digest in pins["verdict"].items():
        member, axiom = key.split("/")
        if axiom in MODULE_AXIOMS:
            argv = ["check-module", str(corpus_dir / f"{member}.module.json")]
        else:
            argv = ["check", str(corpus_dir / f"{member}.json")]
        calls.append((key, argv + ["--axiom", axiom], digest))
    for key, digest in pins["replay"].items():
        seed = key.split("/")[1]
        calls.append((key, ["replay-elem", "--n", "1", "--seed", seed], digest))
    assert len(calls) == 463
    for key, argv, digest in calls:
        capsys.readouterr()
        main(argv + ["--format", "machine"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, key


def test_replay_with_m_max_below_the_pole_order_is_untested(capsys):
    rc = main(["replay-elem", "--n", "3", "--window", "2", "--m-max", "0",
               "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    verdicts = {r["id"]: r["verdict"] for r in data["records"]}
    # (A) holds on these instances, but their m1 pole order exceeds 0
    assert verdicts["replay/0/ia"] == verdicts["replay/1/ia"] == "UNTESTED"
    assert "FAIL" not in verdicts.values()


def test_machine_reports_are_deterministic(corpus_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        rc = main(["--seed", "11", "--format", "machine",
                   "replay-elem", "--n", "3", "--out", str(target)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["seed"] == 11
    assert all(set(r) == {"id", "anchor", "verdict", "witness"}
               for r in data["records"])


def test_flag_position_is_irrelevant(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["--seed", "5", "--format", "machine", "replay-elem", "--n", "2",
          "--out", str(a)])
    main(["replay-elem", "--n", "2", "--seed", "5", "--format", "machine",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_structure_config_round_trip(tmp_path):
    S = borcherds_structure(4)
    cfg = configio.member_to_config(S)
    path = tmp_path / "s.json"
    configio.dump_json(cfg, path)
    S2 = configio.load_structure(str(path))
    assert S2.ytable == S.ytable
    assert S2.basis == S.basis and S2.vacuum == S.vacuum


def test_mutant_config_round_trip(tmp_path):
    S = mutants()[0]
    path = tmp_path / "m.json"
    configio.dump_json(configio.member_to_config(S), path)
    S2 = configio.load_structure(str(path))
    assert S2.ytable == S.ytable


def test_module_config_round_trip(tmp_path):
    M = make_module(3, "quotient")
    configio.dump_json(configio.member_to_config(M.over),
                       tmp_path / f"{M.over.name}.json")
    path = tmp_path / "mod.json"
    configio.dump_json(configio.member_to_config(M), path)
    M2 = configio.load_module(str(path))
    assert M2.ywtable == M.ywtable
    assert M2.over.ytable == M.over.ytable


def test_module_config_requires_base(tmp_path):
    M = make_module(3, "regular")
    path = tmp_path / "mod.json"
    configio.dump_json(configio.member_to_config(M), path)
    with pytest.raises(ConfigError):
        configio.load_module(str(path))


def test_rationals_serialize_as_fraction_strings():
    from fractions import Fraction
    from vertexcalc.scalars import Vec
    S = borcherds_structure(3)
    table = {pair: dict(modes) for pair, modes in S.ytable.items()}
    table[("e1", "e1")][-1] = Vec({"e2": Fraction(1, 2)})
    from vertexcalc.structures import VertexStructure
    cfg = configio.member_to_config(
        VertexStructure("halved", S.basis, table, vacuum="e0"))
    rec = [m for m in cfg["modes"] if m["u"] == "e1" and m["v"] == "e1"][0]
    assert rec["coeff"] == {"e2": "1/2"}


def test_emitted_corpus_has_expected_files(corpus_dir):
    names = sorted(os.listdir(corpus_dir))
    assert "borcherds-k2.json" in names
    assert "borcherds-k5-ideal.json" in names
    structures = [n for n in names if not n.endswith(".module.json")]
    modules = [n for n in names if n.endswith(".module.json")]
    assert len(structures) == 18
    assert len(modules) == 17


def test_replay_report_is_unchanged_under_optimize_flag():
    # -O strips assert statements; no verdict may depend on one
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = ["-m", "vertexcalc.cli", "replay-elem", "--n", "2",
           "--format", "machine"]
    plain, optimized = [
        subprocess.run([sys.executable, *flags, *cmd], env=env,
                       capture_output=True, timeout=300)
        for flags in ([], ["-O"])]
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


# defect -> (command, edit of the borcherds-k3 structure or module config)
# defect -> (command, config the edit applies to and the command reads,
# edit, a piece of the one-line message)
MALFORMED = {
    "fractional-mode-index":
        ("check", "base", lambda c: c["modes"][0].update(n=-1.5),
         "mode index -1.5 is not an integer"),
    "zero-denominator":
        ("check", "base", lambda c: c["modes"][0].update(coeff={"e0": "1/0"}),
         "mode coefficient '1/0' of 'e0' is not a rational"),
    "non-rational-coefficient":
        ("check", "base", lambda c: c["modes"][0].update(coeff={"e0": "x/y"}),
         "mode coefficient 'x/y' of 'e0' is not a rational"),
    "bool-coefficient":
        ("check", "base", lambda c: c["modes"][0].update(coeff={"e0": True}),
         "mode coefficient True of 'e0' is not a rational"),
    "bool-coefficient-module":
        ("check-module", "module",
         lambda c: c["wmodes"][0].update(coeff={"e0": False}),
         "module mode coefficient False of 'e0' is not a rational"),
    "far-exponent-coefficient":
        ("check", "base", lambda c: c["modes"][0].update(coeff={"e0": "1e3000000"}),
         "borcherds-k3.json: mode coefficient '1e3000000' of 'e0' has an exponent "
         "beyond +-4300"),
    "far-exponent-coefficient-module":
        ("check-module", "module",
         lambda c: c["wmodes"][0].update(coeff={"e0": " -2.5E-9999"}),
         "m.module.json: module mode coefficient ' -2.5E-9999' of 'e0' has an "
         "exponent beyond +-4300"),
    "zero-denominator-module":
        ("check-module", "module",
         lambda c: c["wmodes"][0].update(coeff={"e0": "1/0"}),
         "module mode coefficient '1/0' of 'e0' is not a rational"),
    "vacuum-outside-basis":
        ("check", "base", lambda c: c.update(vacuum="zz"),
         "vacuum 'zz' is not in the basis"),
    "unknown-coefficient-key":
        ("check", "base", lambda c: c["modes"][0].update(coeff={"zz": "1"}),
         "mode coefficient key 'zz' is not in the basis"),
    "duplicate-basis-entry":
        ("check", "base", lambda c: c["basis"].append("e0"),
         "basis lists 'e0' twice"),
    "duplicate-mode":
        ("check", "base",
         lambda c: c["modes"].append(dict(c["modes"][0], coeff={"e0": "5"})),
         "mode (e0, -1, e0) is listed twice"),
    "missing-modes":
        ("check", "base", lambda c: c.pop("modes"),
         "bad structure config: missing key 'modes'"),
    "module-config-given-to-check":
        ("check", "module", lambda c: None,
         "m.module.json is a module config; use check-module"),
    "u-outside-base-basis":
        ("check-module", "module", lambda c: c["wmodes"][0].update(u="zz"),
         "module mode u 'zz' is not in the basis"),
    "w-outside-module-basis":
        ("check-module", "module", lambda c: c["wmodes"][0].update(w="zz"),
         "module mode w 'zz' is not in the basis"),
    "unknown-module-coefficient-key":
        ("check-module", "module",
         lambda c: c["wmodes"][0].update(coeff={"zz": "1"}),
         "module mode coefficient key 'zz' is not in the basis"),
    "duplicate-module-mode":
        ("check-module", "module",
         lambda c: c["wmodes"].append(dict(c["wmodes"][0])),
         "module mode (e0, -1, e0) is listed twice"),
    "missing-wmodes":
        ("check-module", "module", lambda c: c.pop("wmodes"),
         "bad module config: missing key 'wmodes'"),
    "coeff-not-object":
        ("check", "base", lambda c: c["modes"][0].update(coeff=5),
         "mode 'coeff' is not a JSON object"),
    "mode-record-not-object":
        ("check", "base", lambda c: c["modes"].insert(0, "x"),
         "a 'modes' entry is not a JSON object"),
    "modes-not-list":
        ("check", "base", lambda c: c.update(modes={"0": c["modes"][0]}),
         "'modes' is not a JSON list"),
    "basis-not-list":
        ("check", "base", lambda c: c.update(basis=5),
         "'basis' is not a JSON list"),
    "tags-not-list":
        ("check", "base", lambda c: c.update(tags=5),
         "'tags' is not a JSON list"),
    "wmodes-coeff-not-object":
        ("check-module", "module", lambda c: c["wmodes"][0].update(coeff=5),
         "module mode 'coeff' is not a JSON object"),
    "name-not-string":
        ("check", "base", lambda c: c.update(name=5),
         "'name' is not a JSON string"),
    "basis-entry-not-string":
        ("check", "base", lambda c: c["basis"].append(3),
         "a 'basis' entry is not a JSON string"),
    "module-name-not-string":
        ("check-module", "module", lambda c: c.update(name=["m"]),
         "'name' is not a JSON string"),
    "wbasis-entry-not-string":
        ("check-module", "module", lambda c: c["wbasis"].insert(0, {"e0": 1}),
         "a 'wbasis' entry is not a JSON string"),
    "structure-config-given-to-check-module":
        ("check-module", "base", lambda c: None,
         "borcherds-k3.json is not a module config"),
    "comma-in-basis-entry":
        ("check", "base", lambda c: c["basis"].append("e0,e1"),
         "basis entry 'e0,e1' contains a comma"),
    "comma-in-wbasis-entry":
        ("check-module", "module", lambda c: c["wbasis"].append("w,1"),
         "wbasis entry 'w,1' contains a comma"),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_malformed_config_is_refused_with_exit_three(corpus_dir, tmp_path,
                                                     capsys, defect):
    command, target, edit, message = MALFORMED[defect]
    base = configio.load_json(str(corpus_dir / "borcherds-k3.json"))
    module = configio.load_json(
        str(corpus_dir / "regular-module-k3.module.json"))
    edit(base if target == "base" else module)
    configio.dump_json(base, tmp_path / "borcherds-k3.json")
    configio.dump_json(module, tmp_path / "m.module.json")
    path = tmp_path / ("borcherds-k3.json" if target == "base" else "m.module.json")
    rc = main([command, str(path), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert message in captured.err


def test_the_zero_space_is_checked_like_any_member(corpus_dir, tmp_path, capsys):
    # a structure with no basis, and modules with no basis over it and over
    # borcherds-k3: every action axiom PASSes on the empty set of triples,
    # the vacuum axioms are UNTESTED without a vacuum, injectivity PASSes
    # with rank 0, and each of the four commands exits 0
    base = configio.load_json(str(corpus_dir / "borcherds-k3.json"))
    configio.dump_json(base, tmp_path / "borcherds-k3.json")
    configio.dump_json({"name": "zero", "basis": [], "modes": [], "vacuum": None,
                        "tags": []}, tmp_path / "zero.json")
    for name, over in (("zero-w", "zero"), ("k3-zero-w", "borcherds-k3")):
        configio.dump_json({"name": name, "over": over, "wbasis": [], "wmodes": [],
                            "tags": []}, tmp_path / f"{name}.module.json")
    untested = {"skew_symmetry", "d_derivative", "d_bracket", "vacuum_prop",
                "creation_prop", "strong_creation"}
    for command, path, axioms, no_vacuum, reason in (
            ("check", "zero.json", AXIOMS, untested,
             "structure has no vacuum element"),
            ("check-module", "zero-w.module.json", MODULE_AXIOMS,
             {"m_vacuum_prop", "m_d_derivative"}, "base structure has no vacuum element"),
            ("check-module", "k3-zero-w.module.json", MODULE_AXIOMS, set(), None)):
        rc = main([command, str(tmp_path / path), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "", path
        records = {r["id"].split("/")[1]: r for r in json.loads(captured.out)["records"]}
        assert list(records) == list(axioms), path
        for axiom, record in records.items():
            want = "UNTESTED" if axiom in no_vacuum else "PASS"
            assert record["verdict"] == want, (path, axiom)
            if axiom in no_vacuum:
                assert record["witness"] == {"reason": reason}, (path, axiom)
        if command == "check":
            assert records["injectivity"]["witness"] == {"rank": 0}
    for command in ("implication-matrix", "main-theorem"):
        rc = main([command, str(tmp_path), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "", command
        members = {r["id"].split("/")[0] for r in json.loads(captured.out)["records"]}
        assert members >= ({"zero"} if command == "implication-matrix"
                           else {"zero-w", "k3-zero-w"}), command


def test_ut2_passes_weak_assoc_and_fails_jacobi(ut2_dir, capsys):
    for command, path, prefix in (
            ("check", "ut2.json", ""),
            ("check-module", "ut2-regular.module.json", "m_")):
        rc = main([command, str(ut2_dir / path), "--format", "machine"])
        records = json.loads(capsys.readouterr().out)["records"]
        verdicts = {r["id"].split("/")[1]: r["verdict"] for r in records}
        assert rc == 1
        assert verdicts[prefix + "weak_assoc"] == "PASS"
        assert verdicts[prefix + "vacuum_prop"] == "PASS"
        assert verdicts[prefix + "jacobi"] == "FAIL"


def test_main_theorem_passes_on_the_ut2_regular_module(ut2_dir, capsys):
    # ut2 is not a vertex algebra (it fails jacobi), so the main theorem
    # says nothing of its regular module: the rows that its module would
    # violate are UNTESTED and name the base premise that fails
    rc = main(["main-theorem", str(ut2_dir), "--format", "machine"])
    records = {r["id"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    assert rc == 0
    for row in ("m-main/wa", "m-main-equivalence/m_weak_assoc",
                "m-main-equivalence/m_weak_skew_assoc"):
        record = records[f"ut2-regular/{row}"]
        assert record["verdict"] == "UNTESTED"
        assert record["witness"]["ut2/jacobi"] == "FAIL"
        assert "ut2/vacuum_prop" not in record["witness"]
    assert records["ut2-regular/m-main/wa"]["witness"] == {
        "m_vacuum_prop": "PASS", "m_weak_assoc": "PASS", "ut2/jacobi": "FAIL"}
    assert main(["implication-matrix", str(ut2_dir)]) == 0


def test_repeated_mode_record_is_refused_and_named(corpus_dir, tmp_path, capsys):
    # a second record of a mode used to replace the first without a word
    config = configio.load_json(str(corpus_dir / "borcherds-k2.json"))
    config["modes"].append({"u": "e0", "n": -1, "v": "e0", "coeff": {"e0": "5"}})
    configio.dump_json(config, tmp_path / "borcherds-k2.json")
    rc = main(["check", str(tmp_path / "borcherds-k2.json"), "--axiom", "jacobi"])
    assert rc == 3
    assert "mode (e0, -1, e0) is listed twice" in capsys.readouterr().err


def test_module_over_a_base_of_another_name_is_refused(corpus_dir, tmp_path, capsys):
    # the base file named by ``over`` holds a structure of another name
    base = configio.load_json(str(corpus_dir / "borcherds-k3.json"))
    configio.dump_json({**base, "name": "other"}, tmp_path / "borcherds-k3.json")
    configio.dump_json(configio.load_json(
        str(corpus_dir / "regular-module-k3.module.json")), tmp_path / "m.module.json")
    rc = main(["check-module", str(tmp_path / "m.module.json")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (f"config error: {tmp_path / 'm.module.json'}: module expects "
                            "base 'borcherds-k3', got 'other'\n")


@pytest.mark.parametrize("over, shown", [
    (None, "None"), (["a"], "['a']"), (5, "5"), ("", "''"), (".", "'.'"),
    ("..", "'..'"), ("../borcherds-k3", "'../borcherds-k3'"), ("a/b", "'a/b'")])
def test_an_over_that_is_not_a_plain_file_name_is_refused(corpus_dir, tmp_path, capsys,
                                                          over, shown):
    # the base structure is "<over>.json" next to the module file: an
    # "over" of another JSON type, or one that is not a plain file name, used
    # to be read as a path (or None.json) and named no file or key
    configio.dump_json(configio.load_json(str(corpus_dir / "borcherds-k3.json")),
                       tmp_path / "borcherds-k3.json")
    module = configio.load_json(str(corpus_dir / "regular-module-k3.module.json"))
    path = tmp_path / "m.module.json"
    configio.dump_json({**module, "over": over}, path)
    for argv in (["check-module", str(path)], ["main-theorem", str(tmp_path)]):
        rc = main(argv + ["--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "", argv
        assert captured.err == (f"config error: {path}: 'over' {shown} "
                                "is not a plain file name\n"), argv


def test_a_missing_base_structure_file_is_named_with_its_module(corpus_dir, tmp_path,
                                                                capsys):
    # a module whose "over" names no file next to it is refused by its own
    # path and key, by check-module and by the corpus reader of main-theorem
    configio.dump_json(configio.load_json(str(corpus_dir / "borcherds-k3.json")),
                       tmp_path / "borcherds-k3.json")
    module = configio.load_json(str(corpus_dir / "regular-module-k3.module.json"))
    path = tmp_path / "m.module.json"
    configio.dump_json({**module, "over": "nosuch"}, path)
    for argv in (["check-module", str(path)], ["main-theorem", str(tmp_path)]):
        rc = main(argv + ["--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "", argv
        assert captured.err == (f"config error: {path}: 'over' 'nosuch' names no base "
                                f"structure file {tmp_path / 'nosuch.json'}\n"), argv


def test_a_base_that_is_a_module_config_is_named_with_its_module(corpus_dir, tmp_path,
                                                                 capsys):
    # a module whose "over" names a module config, itself or another, is
    # refused by the module's path and key, not told to use check-module
    module = configio.load_json(str(corpus_dir / "regular-module-k3.module.json"))
    m2, own = tmp_path / "m2.module.json", tmp_path / "self.json"
    for path in (m2, own):
        configio.dump_json({**module, "over": "self"}, path)
    for path, argv in ((m2, ["check-module", str(m2)]), (own, ["check-module", str(own)]),
                       (m2, ["main-theorem", str(tmp_path)])):
        rc = main(argv + ["--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "", argv
        assert captured.err == (f"config error: {path}: 'over' 'self' names {own}, "
                                "a module config, not a structure\n"), argv


def test_consistency_violation_exits_two_with_one_line(corpus_dir, monkeypatch,
                                                       capsys):
    # a stack writer that doubles one coefficient of slot f makes the valid
    # borcherds-k3 fail Jacobi on its member stack but not on the triple
    # alone: the guard's violation exits 2, with no report and one line
    double_first_coefficient(monkeypatch, "f")
    rc = main(["check", str(corpus_dir / "borcherds-k3.json"), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(
        "consistency violation: jacobi stacking is inconsistent at (")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_any_other_package_error_exits_three_with_one_line(corpus_dir, monkeypatch,
                                                           capsys):
    def underflow(*args):
        raise WindowUnderflowError("the window ran out")

    monkeypatch.setitem(structures.CHECKERS, "jacobi", underflow)
    rc = main(["check", str(corpus_dir / "borcherds-k3.json"), "--format", "machine"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == "error: the window ran out\n"


def test_config_that_is_not_an_object_is_refused(tmp_path, capsys):
    path = tmp_path / "number.json"
    path.write_text("5\n")
    for argv in (["check", str(path)], ["check-module", str(path)],
                 ["main-theorem", str(tmp_path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, body", [
    ("nested.json", b"[" * 100_000 + b"]" * 100_000),
    ("utf16.json", b"\xff\xfe{\x00}\x00"),
    ("long-integer.json", b'{"name": ' + b"9" * 5000 + b"}"),
    ("far-exponent.json", b'{"name": 1e999999999}'),
], ids=["deeply-nested", "utf16-bom", "long-integer", "far-exponent"])
def test_a_config_that_cannot_be_decoded_is_refused(tmp_path, capsys, name, body):
    # JSON nested past the parser's recursion limit, bytes that are not
    # UTF-8, an integer longer than Python reads, and a number whose exact
    # value would be as long (it is never read through a float), are refused
    # like any unreadable config: exit 3, one line, no traceback
    path = tmp_path / name
    path.write_bytes(body)
    for argv in (["check", str(path)], ["implication-matrix", str(tmp_path)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert captured.err.startswith(f"config error: cannot read {path}: "), argv


@pytest.mark.parametrize("argv, message", [
    (["--window", "3", "check", "X"],
     "argument --window: taken by prove-deltas and replay-elem only, "
     "given after the subcommand"),
    (["--m-max", "2", "replay-elem", "--n", "1"],
     "argument --m-max: taken by replay-elem only, given after the subcommand"),
    (["--win", "3", "check", "X"],
     "argument --window: taken by prove-deltas and replay-elem only, "
     "given after the subcommand"),
    (["--win=3", "check", "X"],
     "argument --window: taken by prove-deltas and replay-elem only, "
     "given after the subcommand"),
], ids=["window", "m_max", "window-prefix", "window-prefix-equals"])
def test_a_subcommand_flag_before_the_subcommand_is_named(corpus_dir, capsys, argv,
                                                          message):
    # the main parser does not take the flag, and would read its value as the
    # subcommand; the usage error names the flag and the subcommands that take
    # it instead, and matches an abbreviated flag as argparse does
    argv = [str(corpus_dir / "borcherds-k3.json") if a == "X" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.startswith("usage: vertexcalc ")
    assert captured.err.endswith(f"vertexcalc: error: {message}\n")


def _with_first_mode(corpus_dir, tmp_path, field, text):
    """The path of borcherds-k2's config with the JSON text of its first mode
    record's ``field`` (e0_(-1) e0 = e0) replaced by ``text``."""
    raw = (corpus_dir / "borcherds-k2.json").read_text()
    first = {"coeff": '"1"', "n": "-1"} | {field: text}
    old = '"modes":[{"coeff":{"e0":"1"},"n":-1,'
    assert old in raw
    path = tmp_path / "borcherds-k2.json"
    path.write_text(raw.replace(old, f'"modes":[{{"coeff":{{"e0":{first["coeff"]}}},'
                                     f'"n":{first["n"]},'))
    return path


def test_a_json_number_is_read_exactly(corpus_dir, tmp_path, capsys):
    # a coefficient written as a JSON number is read exactly, not through a
    # float that would round 1.0000000000000000001 to 1: e0_(-1) e0 is then
    # no longer e0, and the vacuum property FAILs; 1.0 is exactly 1, so the
    # report is borcherds-k2's own
    assert main(["check", str(corpus_dir / "borcherds-k2.json"), "--format", "machine"]) == 0
    own = capsys.readouterr().out
    path = _with_first_mode(corpus_dir, tmp_path, "coeff", "1.0")
    assert main(["check", str(path), "--format", "machine"]) == 0
    assert capsys.readouterr().out == own
    path = _with_first_mode(corpus_dir, tmp_path, "coeff", "1.0000000000000000001")
    assert main(["check", str(path), "--format", "machine"]) == 1
    records = {r["id"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    assert records["borcherds-k2/vacuum_prop"]["verdict"] == "FAIL"
    assert records["borcherds-k2/vacuum_prop"]["witness"] == {"element": "e0"}


@pytest.mark.parametrize("text", ["-1.5", "-1.0", "-1e0", "-10E-1"])
def test_a_mode_index_written_as_a_non_integer_number_is_refused(corpus_dir, tmp_path,
                                                                 capsys, text):
    # a JSON number with a fraction or an exponent is no mode index, even
    # where its value is an integer, and the message shows it as written
    path = _with_first_mode(corpus_dir, tmp_path, "n", text)
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"config error: {path}: mode index {text} is not an integer\n"


def test_chain70_passes_strong_creation_and_skew_symmetry(tmp_path, capsys):
    # chain-70's D has nilpotency index 70: the D axioms sum D^j / j! up to
    # j = 69 on the mode tables, with no step cap of their own
    path = tmp_path / "chain70.json"
    configio.dump_json(configio.member_to_config(chain(70)), path)
    argv = ["check", str(path), "--axiom", "strong_creation", "--axiom", "skew_symmetry",
            "--format", "machine"]
    assert main(argv) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["id"], r["verdict"]) for r in records] == [
        ("chain70/strong_creation", "PASS"), ("chain70/skew_symmetry", "PASS")]


def _not_nilpotent(directory, name="not-nilpotent"):
    """The path of a structure config ``name`` in ``directory`` on the basis
    (1, a) with a_(-2) 1 = a, so that its derived D, D a = a, is not
    nilpotent."""
    path = directory / f"{name}.json"
    configio.dump_json({"name": name, "basis": ["1", "a"], "vacuum": "1",
                        "modes": [{"u": "1", "n": -1, "v": b, "coeff": {b: "1"}}
                                  for b in ("1", "a")]
                        + [{"u": "a", "n": -2, "v": "1", "coeff": {"a": "1"}}],
                        "tags": []}, path)
    return path


def test_a_structure_whose_derived_d_is_not_nilpotent_is_refused(tmp_path, capsys):
    # basis (1, a) with a_(-2) 1 = a: D a = a is not nilpotent, and the member
    # is refused at construction (a decision; see VertexStructure._derive_dop),
    # named by its file like any malformed config
    path = _not_nilpotent(tmp_path)
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"config error: {path}: derived derivation operator is not nilpotent\n"


def test_a_corpus_or_a_base_whose_derived_d_is_not_nilpotent_is_named(corpus_dir, tmp_path,
                                                                      capsys):
    # the construction law's refusal names the file that holds the member:
    # the corpus file that implication-matrix reads beside borcherds-k2, and
    # the base structure of a module
    configio.dump_json(configio.load_json(str(corpus_dir / "borcherds-k2.json")),
                       tmp_path / "borcherds-k2.json")
    path = _not_nilpotent(tmp_path)
    module = configio.load_json(str(corpus_dir / "regular-module-k2.module.json"))
    module_dir = tmp_path / "module"
    module_dir.mkdir()
    base = _not_nilpotent(module_dir, "borcherds-k2")
    configio.dump_json(module, module_dir / "m.module.json")
    for argv, named in ((["implication-matrix", str(tmp_path)], path),
                        (["check-module", str(module_dir / "m.module.json")], base),
                        (["main-theorem", str(module_dir)], base)):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err, argv
        assert captured.err == (f"config error: {named}: derived derivation operator "
                                "is not nilpotent\n"), argv


def test_corpus_commands_read_each_config_once(corpus_dir, monkeypatch, capsys):
    # implication-matrix and main-theorem read every file of the corpus once,
    # parse each base structure at most once, and parse no config of the
    # other kind
    reads, parsed = [], []

    def read(path, _original=configio.load_json):
        reads.append(path)
        return _original(path)

    def member(data, over=None, _original=configio.member_from_config):
        parsed.append(("structure" if over is None else "module", data))
        return _original(data, over)
    monkeypatch.setattr(configio, "load_json", read)
    monkeypatch.setattr(configio, "member_from_config", member)
    files = sorted(str(p) for p in corpus_dir.glob("*.json"))
    modules = [f for f in files if f.endswith(".module.json")]
    for command in ("implication-matrix", "main-theorem"):
        reads.clear()
        parsed.clear()
        assert main([command, str(corpus_dir), "--format", "machine"]) == 0
        capsys.readouterr()
        assert sorted(reads) == files, command
        kinds = [kind for kind, _ in parsed]
        if command == "implication-matrix":
            assert kinds == ["structure"] * (len(files) - len(modules))
        else:
            bases = [data["name"] for kind, data in parsed if kind == "structure"]
            assert kinds.count("module") == len(modules)
            assert len(bases) == len(set(bases)) < len(modules)


@pytest.mark.parametrize("argv", [
    ["prove-deltas", "--window", "-2"],
    ["replay-elem", "--window", "0"],
    ["replay-elem", "--m-max", "two"],
    ["replay-elem", "--m-max", "-1"],
    ["replay-elem", "--n", "-3"],
    ["--window", "6", "prove-deltas"],
    ["replay-elem", "--window", "two"],
    ["check", "X", "--axiom", "no_such_axiom"],
    ["check-module", "X", "--axiom", "jacobi"],
    ["no-such-command"],
    ["prove-deltas", "--m-max", "1"],  # it never read a witness bound
])
def test_usage_errors_exit_three(corpus_dir, capsys, argv):
    argv = [str(corpus_dir / "borcherds-k3.json") if a == "X" else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target, reason", [
    (["check", "K2", "--axiom", "jacobi", "--out", "MISSING/x.json"],
     "MISSING/x.json", "No such file or directory"),
    (["examples", "emit", "--out", "FILE"], "FILE", "File exists"),
    (["replay-elem", "--n", "1", "--out", "MISSING/x.json"],
     "MISSING/x.json", "No such file or directory"),
], ids=["check", "examples-emit", "replay-elem"])
def test_unwritable_output_path_is_refused_with_exit_three(
        corpus_dir, tmp_path, argv, target, reason):
    # an output path that cannot be written is a config error: exit 3 and a
    # one-line message naming the path, not a traceback and exit 1
    (tmp_path / "FILE").write_text("taken\n")
    paths = {"K2": str(corpus_dir / "borcherds-k2.json"),
             "FILE": str(tmp_path / "FILE"),
             "MISSING/x.json": str(tmp_path / "missing" / "x.json")}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "vertexcalc.cli", *(paths.get(a, a) for a in argv)],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr == f"config error: cannot write {paths[target]}: {reason}\n"
    assert (tmp_path / "FILE").read_text() == "taken\n"


def test_help_still_exits_zero(capsys):
    # only prove-deltas and replay-elem take a window, and only replay-elem
    # a witness bound; a check reads both off the member
    for command, flags in (("check", ()), ("check-module", ()),
                           ("implication-matrix", ()), ("main-theorem", ()),
                           ("prove-deltas", ("--window",)),
                           ("replay-elem", ("--window", "--m-max"))):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert {f for f in ("--window", "--m-max") if f in out} == set(flags), command


def test_check_reports_record_no_window_and_no_m_max(corpus_dir, capsys):
    # the params of a check report stay {"window": null, "m_max": null}, the
    # bytes that the benchmark pins, though no check takes either
    for command, path in (("check", "borcherds-k3.json"),
                          ("check-module", "regular-module-k3.module.json"),
                          ("implication-matrix", ""), ("main-theorem", "")):
        assert main([command, str(corpus_dir / path), "--format", "machine"]) in (0, 1)
        data = json.loads(capsys.readouterr().out)
        assert data["params"] == {"window": None, "m_max": None}, command


CHECK_COMMANDS = {"check": "borcherds-k3.json",
                  "check-module": "regular-module-k3.module.json",
                  "implication-matrix": "", "main-theorem": ""}


@pytest.mark.parametrize("command", sorted(CHECK_COMMANDS))
@pytest.mark.parametrize("flag", [["--window", "5"], ["--m-max", "2"]], ids=["window", "m_max"])
@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
def test_check_commands_refuse_window_and_m_max(corpus_dir, tmp_path, capsys, monkeypatch,
                                                command, flag, before):
    # a usage error, before any member is read: exit 3, usage on stderr, no
    # report on stdout and no --out file
    monkeypatch.setattr(configio, "load_json", lambda path: pytest.fail(path))
    out = tmp_path / "report.json"
    argv = [command, str(corpus_dir / CHECK_COMMANDS[command]), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(flag + argv if before else argv + flag)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == "" and not out.exists()
    assert captured.err.startswith("usage: vertexcalc ") and "error:" in captured.err


@pytest.mark.parametrize("command, window, member", [
    ("implication-matrix", 4, "borcherds-k5"),
    ("main-theorem", 4, "ideal-module-k5"),
    ("main-theorem", 2, "ideal-module-k2")])
def test_rows_below_a_members_default_window_exit_three(corpus_dir, tmp_path, capsys,
                                                         monkeypatch, command, window,
                                                         member):
    # the corpus harnesses take no window, so one below a member's default
    # is a usage error: no member of the corpus is checked first, and no
    # report is written
    name = member + (".module.json" if command == "main-theorem" else ".json")
    A = (configio.load_module if command == "main-theorem"
         else configio.load_structure)(str(corpus_dir / name))
    assert structures.default_window(A) > window
    monkeypatch.setattr(structures, "check_all", lambda *args: pytest.fail(args))
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([command, str(corpus_dir), "--window", str(window), "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == "" and not out.exists()
    assert captured.err.endswith(f"error: unrecognized arguments: --window {window}\n")


@pytest.mark.parametrize("argv, params, digest", [
    (["prove-deltas", "--window", "4"], {"window": 4, "m_max": None},
     "f71316181d78f94b1dc334cbac96f2306563860bdfb52eb3268b03e1ef57499d"),
    (["replay-elem", "--window", "2", "--m-max", "0"], {"window": 2, "m_max": 0},
     "1b370cb9d424c15acad5de838ad1dc53ff70fdadb1626a01c96472f5cea6c83f"),
], ids=["prove-deltas", "replay-elem"])
def test_window_and_m_max_after_their_subcommand_keep_their_reports(capsys, argv,
                                                                    params, digest):
    # the two commands whose window and witness bound are real parameters
    # take them after the subcommand, and their reports keep their bytes
    assert main(argv + ["--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["params"] == params
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_a_malformed_config_in_a_corpus_is_named(corpus_dir, tmp_path, capsys):
    # implication-matrix and main-theorem name the file whose config is
    # malformed; a module whose base is malformed names the base file
    for name in ("borcherds-k3.json", "regular-module-k3.module.json"):
        configio.dump_json(configio.load_json(str(corpus_dir / name)), tmp_path / name)
    base = configio.load_json(str(tmp_path / "borcherds-k3.json"))
    configio.dump_json({**base, "basis": [["a"]]}, tmp_path / "borcherds-k3.json")
    for command in ("implication-matrix", "main-theorem"):
        rc = main([command, str(tmp_path), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "", command
        assert captured.err == (f"config error: {tmp_path / 'borcherds-k3.json'}: "
                                "a 'basis' entry is not a JSON string\n"), command


def test_one_parser_serves_every_call_without_leaking_state(corpus_dir, capsys):
    path = str(corpus_dir / "borcherds-k4.json")

    def checked_ids(argv):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line.split()[1] for line in lines if line.startswith("PASS")]

    assert checked_ids(["check", path, "--axiom", "jacobi"]) == ["borcherds-k4/jacobi"]
    assert checked_ids(["check", path]) == [f"borcherds-k4/{a}" for a in AXIOMS]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command, name, axioms", [
    ("check", "mutant-pole.json", ["weak_comm", "jacobi", "weak_comm", "jacobi"]),
    ("check-module", "regular-module-k3.module.json", ["m_jacobi", "m_jacobi"]),
])
def test_a_repeated_axiom_is_checked_once(corpus_dir, capsys, command, name, axioms):
    # each axiom asked for is one record, in the order first asked, so no
    # two records of one report share an id
    argv = [command, str(corpus_dir / name), "--format", "machine"]
    for axiom in axioms:
        argv += ["--axiom", axiom]
    main(argv)
    ids = [r["id"] for r in json.loads(capsys.readouterr().out)["records"]]
    member = json.loads((corpus_dir / name).read_text())["name"]
    assert ids == [f"{member}/{a}" for a in dict.fromkeys(axioms)]
