"""The runtime stays standard-library only, the demos run, and every
function of the package is reached by a command or a demo."""
import ast
import contextlib
import glob
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vertexcalc")
DEMOS = os.path.join(ROOT, "demos")


def _absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"vertexcalc"}
    for name in sources:
        outside = set(_absolute_imports(os.path.join(PACKAGE, name))) - allowed
        assert not outside, (name, sorted(outside))


def test_pyproject_declares_no_runtime_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        text = fh.read()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_deltacalc_shares_no_arithmetic_with_route_two():
    # route 1 (deltacalc's window oracle), the tests' reference of the
    # Jacobi checker, must not borrow the series arithmetic that the
    # checker's route 2 (rationalforms.three_term_series) runs on
    path = os.path.join(PACKAGE, "deltacalc.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported |= {f"{base}.{a.name}" for a in node.names}
    names = {part for name in imported for part in name.split(".") if part}
    assert imported and not names & {"series", "rationalforms"}, sorted(imported)


def _defined_names(path):
    """The names that a module's top level defines, not those it imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_exact_jacobi_route_shares_no_name_with_the_windowed_routes():
    # the exact routes (the kernel rationalforms.exact_difference, the four
    # claim deciders, exact_jacobi and _laurent, their refusal of inexact
    # slots) read no name that series (route 2 and the windowed weak and vf
    # routes) or deltacalc (route 1) defines: their arithmetic is math.comb
    # and the coefficient operators; they decide an exact instance, whose
    # coefficients are scalars; and they refuse, undecided, a slot series
    # that is not a Laurent polynomial
    from vertexcalc import rationalforms
    from vertexcalc.errors import WindowUnderflowError
    route = (rationalforms.exact_difference, rationalforms.exact_weak_comm,
             rationalforms.exact_weak_assoc, rationalforms.exact_weak_skew_assoc,
             rationalforms.exact_vf, rationalforms.exact_jacobi, rationalforms._laurent)
    tree = ast.parse("\n".join(inspect.getsource(fn) for fn in route))
    windowed = (_defined_names(os.path.join(PACKAGE, "series.py"))
                | _defined_names(os.path.join(PACKAGE, "deltacalc.py")))
    assert {"apply_delta", "window_coeffs", "WindowedSeries", "taylor_substitute",
            "multiply", "judged_coeffs"} <= windowed
    assert not _referenced_names(tree) & windowed, sorted(_referenced_names(tree) & windowed)
    refused, declined = 0, 0
    for seed in range(8):
        inst = rationalforms.generate_instance(seed)
        if all(s.is_exact() for s in (inst.f, inst.g, inst.h)):
            assert rationalforms.exact_jacobi(inst) == {}
            continue
        with pytest.raises(WindowUnderflowError, match="exact in every variable"):
            rationalforms.exact_jacobi(inst)
        refused += 1
        for decide, slots in zip(route[1:4], ("fg", "hf", "hg")):
            if not all(getattr(inst, s).is_exact() for s in slots):
                with pytest.raises(WindowUnderflowError, match="exact in every variable"):
                    decide(inst)
                declined += 1
    assert refused >= 6 and declined >= 16, (refused, declined)


def test_d_axioms_share_no_name_with_the_windowed_routes():
    # the four D checkers decide the component identities of their axioms on
    # the plain mode dicts: they, and every helper they call, read no name
    # that series (the windowed series) or deltacalc (route 1) defines, and
    # the series forms they once read are gone
    from vertexcalc import scalars, series, structures
    route = (structures.check_d_derivative, structures.check_d_bracket,
             structures.check_skew_symmetry, structures.check_strong_creation,
             structures._first_failing, structures.PropertyReport,
             structures.VertexStructure.exp_d, structures.divided_powers,
             structures.ModuleStructure.yw_modes, structures._modes, scalars.linear_map)
    tree = ast.parse("\n".join(textwrap.dedent(inspect.getsource(fn)) for fn in route))
    windowed = (_defined_names(os.path.join(PACKAGE, "series.py"))
                | _defined_names(os.path.join(PACKAGE, "deltacalc.py")))
    assert {"WindowedSeries", "multiply", "zero_verdict", "judged_coeffs", "taylor_substitute",
            "window_coeffs"} <= windowed
    assert not _referenced_names(tree) & windowed, sorted(_referenced_names(tree) & windowed)
    assert not hasattr(series, "exp_endo") and not hasattr(series.WindowedSeries, "derivative")
    assert not hasattr(structures, "_exp_d_apply")
    assert not hasattr(structures.ModuleStructure, "yw_series")


def test_series_builds_on_errors_and_scalars_alone():
    # the layers run scalars -> series -> rationalforms: the series kernels
    # take nothing from the package but its errors and exact scalars
    path = os.path.join(PACKAGE, "series.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("vertexcalc")}
        elif isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("vertexcalc"):
            imported.add(node.module)
    names = {name.removeprefix("vertexcalc.") for name in imported}
    assert names == {"errors", "scalars"}, sorted(imported)


def _package_trees():
    """{file name: parsed module} of every source file of the package."""
    out = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name)) as fh:
            out[name] = ast.parse(fh.read(), filename=name)
    return out


def _referenced_names(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_coefficients_need_no_coeff_helper():
    # a Vec is a coefficient with the operators of one, so no module of the
    # package defines, imports or names a coeff_* helper
    trees = _package_trees()
    assert "Vec" in _defined_names(os.path.join(PACKAGE, "scalars.py"))
    named = []
    for name, tree in trees.items():
        imported = {a.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        defined = _defined_names(os.path.join(PACKAGE, name))
        named += [(name, n) for n in sorted(_referenced_names(tree) | imported | defined)
                  if n.startswith("coeff_")]
    assert not named, named


def test_package_imports_no_name_it_never_uses():
    # __init__ imports to re-export: that is its public API
    unused = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and alias.name != "annotations":
                        unused.append((name, bound))
    assert not unused, unused


def test_no_package_module_imports_a_private_name_of_another():
    # a name that opens with "_" is its module's own: another module of the
    # package that needs it needs a public name.  The two readers and the two
    # writers of the two kinds of member config are one each
    from vertexcalc import configio
    private = [(name, node.module, alias.name) for name, tree in _package_trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("vertexcalc"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private
    for gone in ("structure_from_config", "module_from_config", "structure_to_config",
                 "module_to_config"):
        assert not hasattr(configio, gone), gone
    assert callable(configio.member_from_config) and callable(configio.member_to_config)


def test_package_defines_no_private_name_it_never_references():
    trees = _package_trees()
    used = set().union(*map(_referenced_names, trees.values()))
    unreferenced = [
        (name, node.name) for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used]
    assert not unreferenced, unreferenced


def _parenthesized(text):
    """Whether the source ``text`` is one expression in parentheses: its
    first "(" closes at its end, so that what lies between is balanced."""
    try:
        return text[0] + text[-1] == "()" and bool(ast.parse(f"[{text[1:-1]}]"))
    except SyntaxError:
        return False


def _newer_grammar(source):
    """The lines of ``source`` that use grammar newer than Python 3.10: a
    starred item in an unparenthesized subscript tuple (x[a, *b]) and
    except* (both 3.11), which ``ast.parse(..., feature_version=(3, 10))``
    does not refuse."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.TryStar) or (
                isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and any(isinstance(e, ast.Starred) for e in node.slice.elts)
                and not _parenthesized(ast.get_source_segment(source, node.slice))):
            yield node.lineno


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: no source file may use
    # grammar that 3.10 refuses, or the package does not import there
    probe = ("out['pole', *key] = c\nout[('pole', *key)] = c\nx[f(*a)]\nx[*a]\n"
             "x[(a), *(b)]\nx[(\n  a, *b)]\ntry:\n    pass\nexcept* E:\n    pass\n")
    assert sorted(_newer_grammar(probe)) == [1, 4, 5, 8]
    newer = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path) as fh:
            newer += [(os.path.basename(path), line) for line in _newer_grammar(fh.read())]
    assert not newer, newer


CACHES = {"cache", "lru_cache"}


def _process_wide_caches(path):
    """(function name or None, line) of every functools.cache / lru_cache use:
    the name of the function it decorates, None for any other use."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                for sub in ast.walk(dec):
                    decorated[id(sub)] = node.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield decorated.get(id(node)), node.lineno


def test_no_process_wide_cache_but_the_parser():
    # a cache that outlives one command would be hit by in-process benchmark
    # repeats but never by a CLI run, which is one process per command
    found = set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        for func, line in _process_wide_caches(os.path.join(PACKAGE, name)):
            found.add((name, func) if func else (name, line))
    assert found == {("cli.py", "build_parser")}


def test_every_axiom_has_one_checker_with_one_signature():
    # one table decides every axiom; the module axioms keep the report order
    # of the seven axioms of every action, and bench/run.py reads
    # modules.VACUUM_MODULE_AXIOMS
    from vertexcalc import modules, structures
    for name, check in structures.CHECKERS.items():
        assert tuple(inspect.signature(check).parameters) == ("A", "axiom", "member"), name
    # the box and the witness bound belong to the member: no entry point of
    # a check takes either
    for func in (structures.check_axiom, structures.check_all, structures.replay_rows,
                 structures.replay_corpus):
        assert not {"window", "m_max"} & set(inspect.signature(func).parameters), func
    assert not hasattr(structures, "_box")
    assert structures.AXIOMS == tuple(structures.CHECKERS)
    assert structures.MODULE_AXIOMS == (
        "m_jacobi", "m_weak_comm", "m_weak_assoc", "m_weak_skew_assoc",
        "m_vf_skew_symmetry", "m_vacuum_prop", "m_d_derivative")
    assert modules.VACUUM_MODULE_AXIOMS == {"m_vacuum_prop", "m_d_derivative"}


def test_the_stacked_axioms_have_one_checker_and_one_search():
    # Jacobi, the three weak properties and vf skew symmetry go through one
    # checker, and no other code of structures runs the witness search or
    # raises the guard's violation, so no second stacked path can return
    from vertexcalc import structures
    stacked = ("jacobi", "weak_comm", "weak_assoc", "weak_skew_assoc", "vf_skew_symmetry")
    assert {structures.CHECKERS[axiom] for axiom in stacked} == {structures.check_stacked}
    path = os.path.join(PACKAGE, "structures.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    callers = {"least_clearing_power": set(), "_moved": set()}
    for node in tree.body:
        owner = getattr(node, "name", f"line {node.lineno}")
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in callers):
                callers[call.func.id].add(owner)
    assert callers == {"least_clearing_power": {"check_stacked"},
                       "_moved": {"check_stacked"}}, callers


def test_the_benchmark_finds_the_names_it_reads():
    # bench/run.py imports vertexcalc.cli afresh and then reads the module
    # axiom names from sys.modules["vertexcalc.modules"], which nothing but
    # the package's own __init__ imports; its load_members reads the names
    # below, so a rename or a deletion would fail every benchmark run
    probe = ("import json, sys\n"
             "import vertexcalc.cli\n"
             "m = sys.modules['vertexcalc.modules']\n"
             "print(json.dumps([list(m.MODULE_AXIOMS), sorted(m.VACUUM_MODULE_AXIOMS)]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    from vertexcalc import configio, corpus, rationalforms, structures
    assert json.loads(proc.stdout) == [list(structures.MODULE_AXIOMS),
                                       ["m_d_derivative", "m_vacuum_prop"]]
    for module, names in ((configio, ("load_json", "is_module_config", "load_module",
                                      "load_structure")),
                          (corpus, ("mutant_expected_failures",
                                    "module_mutant_expected_failures"))):
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
    assert structures.AXIOMS and structures.VACUUM_AXIOMS <= set(structures.AXIOMS)
    assert rationalforms.IMPLICATIONS


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
WRITES = {"setdefault", "append", "update", "add"}


def _module_container_writes(tree):
    """(function name, container name, line) of every write, inside a
    function, to a dict, list or set bound at module level.  A write is a
    subscript store or delete, or a setdefault, append, update or add call;
    a function that binds the name itself, without ``global``, writes its
    own local."""
    containers = {
        target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (isinstance(node.value, CONTAINERS) or (
            isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in {"dict", "list", "set"}))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)} | {
            n.id for n in ast.walk(func) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)}
        local -= {name for n in ast.walk(func) if isinstance(n, ast.Global)
                  for name in n.names}
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in WRITES):
                target = node.func.value
            else:
                continue
            if (isinstance(target, ast.Name) and target.id in containers
                    and target.id not in local):
                yield func.name, target.id, node.lineno


def test_no_function_writes_a_module_level_container():
    # a module-level dict, list or set written by a function is a memo that
    # outlives one operation: keep memos local to the operation that fills them
    probe = ast.parse(
        "MEMO = {}\nSEEN = set()\nLOG = []\nTABLE = {'a': 1}\n"
        "def f(k):\n    MEMO[k] = 1\n    MEMO.setdefault(k, 2)\n"
        "    SEEN.add(k)\n    LOG.append(k)\n    MEMO.update({})\n"
        "    return TABLE['a'] + TABLE.get(k, 0)\n"
        "def g(k):\n    MEMO = {}\n    MEMO[k] = 1\n    return MEMO\n"
        "def h(k):\n    global LOG\n    LOG = LOG[:]\n    del LOG[k]\n")
    assert [(f, n) for f, n, _ in _module_container_writes(probe)] == [
        ("f", "MEMO"), ("f", "MEMO"), ("f", "SEEN"), ("f", "LOG"), ("f", "MEMO"),
        ("h", "LOG")]
    written = [(name, *write) for name, tree in _package_trees().items()
               for write in _module_container_writes(tree)]
    assert not written, written


@pytest.mark.parametrize(
    "demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# Functions that no command or demo enters, each kept for a stated reason.
# Dunder methods (ProverFailureError.__init__, for one) are not counted.
UNREACHED_BY_DESIGN = {
    "structures.PropertyReport.to_json": "tests compare whole records",
    "corpus.mutant_expected_failures": "imported by bench/run.py",
    "corpus.module_mutant_expected_failures": "imported by bench/run.py",
    "structures._moved": "runs only when a stacking guard's rerun alone moves (a bug)",
}


def _defined_functions():
    """{(file, first line, qualified name): "module.qualname"} of every
    function the package defines, nested ones included, but for dunder
    methods; class bodies, lambdas and comprehensions are not functions."""
    out = {}
    for path in sorted(glob.glob(os.path.join(os.path.realpath(PACKAGE), "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if not inspect.iscode(c):
                    continue
                stack.append(c)
                name = c.co_name
                if (c.co_flags & inspect.CO_NEWLOCALS and not name.startswith("<")
                        and not (name.startswith("__") and name.endswith("__"))):
                    out[(path, c.co_firstlineno, c.co_qualname)] = f"{module}.{c.co_qualname}"
    return out


def _entered_by_commands_and_demos(tmp_path):
    """(file, first line, qualified name) of every function entered while
    each command runs once in process and each demo runs."""
    from vertexcalc import cli
    # a cache hit enters no function, so start the parser cache empty
    cli.build_parser.cache_clear()
    out = str(tmp_path)
    commands = [["examples", "emit", "--out", out], ["prove-deltas"],
                ["replay-elem", "--n", "10"], ["implication-matrix", out],
                ["main-theorem", out, "--format", "machine"],
                ["check", os.path.join(out, "mutant-fat-vacuum.json")],
                ["check-module", os.path.join(out, "wmutant-fat-vacuum.module.json")]]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                cli.main(argv)
            with pytest.raises(SystemExit):
                cli.main(["check"])
            for demo in sorted(glob.glob(os.path.join(DEMOS, "*.py"))):
                runpy.run_path(demo, run_name="__main__")
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
            for c in codes}


def test_every_package_function_is_reached_or_exempt(tmp_path):
    # code that no command, demo or stated reason needs is dead: delete it
    defined = _defined_functions()
    names = set(defined.values())
    assert not set(UNREACHED_BY_DESIGN) - names, sorted(set(UNREACHED_BY_DESIGN) - names)
    entered = _entered_by_commands_and_demos(tmp_path)
    unreached = sorted(name for key, name in defined.items()
                       if key not in entered and name not in UNREACHED_BY_DESIGN)
    assert not unreached, unreached
