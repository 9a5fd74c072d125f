"""Batch verification front end.

Commands: prove-deltas, replay-elem, check, check-module,
implication-matrix, main-theorem, examples.  Exit codes: 0 all checks pass;
1 a check failed (expected for mutants); 2 theorem-consistency violation
(an implementation bug); 3 config, parse or usage error.
"""
from __future__ import annotations

import argparse
import functools
import glob
import os
import sys
import time
from contextlib import contextmanager

from . import configio, corpus
from .deltacalc import identity_lhs, prove_identity, window_coeffs
from .errors import ConfigError, ConsistencyViolationError, ProverFailureError, VertexCalcError
from .rationalforms import IMPLICATIONS, generate_instance, replay_implication
from .structures import (AXIOMS, MODULE_AXIOMS, MemberStacks, check_axiom,
                         member_axioms, replay_corpus)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INCONSISTENT = 2
EXIT_CONFIG = 3

DELTA_ANCHORS = {
    "two-term": "x1^-1 d((x2+x0)/x1) - x2^-1 d((x1-x0)/x2) = 0",
    "three-term": "x0^-1 d((x1-x2)/x0) - x0^-1 d((-x2+x1)/x0) "
                  "- x1^-1 d((x2+x0)/x1) = 0",
}


@contextmanager
def _writing(path):
    """Refuse an output path that cannot be written as a config error (exit
    3, no traceback), naming the path and the reason."""
    try:
        yield
    except OSError as err:
        raise ConfigError(
            f"cannot write {err.filename or path}: {err.strerror or err}") from None


def _emit(args, command, records, started):
    params = {"window": args.window, "m_max": args.m_max}
    if args.format == "machine":
        body = configio.machine_report(command, args.seed, params, records)
    else:
        body = configio.text_report(command, args.seed, params, records,
                                    durations=time.time() - started)
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return records


def _verdict_exit(records):
    if any(rec["verdict"] == "FAIL" for rec in records):
        return EXIT_CHECK_FAILED
    return EXIT_PASS


# ---------------------------------------------------------------------------
# commands

def cmd_prove_deltas(args):
    t0 = time.time()
    records = []
    for which in ("two-term", "three-term"):
        trace = prove_identity(which)
        lhs = identity_lhs(which)
        N = args.window or 6
        oracle = window_coeffs(lhs, {v: (-N, N) for v in ("x0", "x1", "x2")})
        if oracle:
            raise ProverFailureError(f"window oracle found residue {oracle}")
        records.append({
            "id": f"delta-identity/{which}",
            "anchor": DELTA_ANCHORS[which],
            "verdict": "PASS",
            "witness": {"cancel-pairs": [list(p) for p in trace.pairs],
                        "steps": trace.steps,
                        "oracle-window": N},
        })
        if args.format == "text" and not args.out:
            pairing = ", ".join(f"terms {i} and {j}" for i, j in trace.pairs)
            print(f"{which}: expanded atoms pairwise cancel ({pairing}); "
                  f"window oracle zero on [-{N},{N}]^3")
    _emit(args, "prove-deltas", records, t0)
    return EXIT_PASS


def cmd_replay_elem(args):
    t0 = time.time()
    records = []
    n = args.n
    for i in range(n):
        seed = args.seed + i
        inst = generate_instance(seed, N=args.window or 8)
        for which in IMPLICATIONS:
            rec = replay_implication(which, inst, N=args.window or 8,
                                     m_max=args.m_max)
            records.append({
                "id": f"replay/{seed}/{which}",
                "anchor": f"implication ({which})",
                "verdict": rec["verdict"],
                "witness": rec.get("witness"),
            })
    _emit(args, "replay-elem", records, t0)
    return _verdict_exit(records)


def cmd_check(args, load):
    """check / check-module: check each requested axiom of the member that
    ``load`` reads, all on one ``MemberStacks``."""
    t0 = time.time()
    member = load(args.path)
    stacks, records = MemberStacks(member), []
    for axiom in args.axiom or member_axioms(member):
        rep = check_axiom(member, axiom, stacks)
        records.append({"id": f"{member.name}/{axiom}", "anchor": rep.anchor,
                        "verdict": rep.verdict, "witness": rep.witnesses})
    _emit(args, args.command, records, t0)
    return _verdict_exit(records)


def _load_corpus_dir(path, want_modules):
    """The structures, or the modules, of the configs in ``path``: each file
    read once, each base structure parsed at most once, and a config of the
    other kind not parsed."""
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        raise ConfigError(f"no .json configs in {path}")
    read, bases = {f: configio.load_json(f) for f in files}, {}

    def base(f, named_by):
        if f not in bases:
            bases[f] = configio.load_structure(f, read.get(f), named_by=named_by)
        return bases[f]
    out = [configio.load_module(f, data, base) if want_modules
           else configio.load_structure(f, data)
           for f, data in read.items() if configio.is_module_config(data) == want_modules]
    if not out:
        kind = "module" if want_modules else "structure"
        raise ConfigError(f"no {kind} configs in {path}")
    return out


def cmd_rows(args, want_modules, anchor):
    """implication-matrix / main-theorem: replay the rows of a corpus of
    structures or of modules."""
    t0 = time.time()
    members = _load_corpus_dir(args.path, want_modules)
    rows = replay_corpus(members)
    records = [{"id": f"{r['member']}/{r['row']}", "anchor": anchor,
                "verdict": r["verdict"], "witness": r["premises"]}
               for r in rows]
    _emit(args, args.command, records, t0)
    return EXIT_PASS


def cmd_examples(args):
    outdir = args.out or "corpus-out"
    written = []
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)
        for A in corpus.full_corpus() + corpus.full_module_corpus():
            # a module, then its base structure unless that is written already
            for B in [A] if A.over is A else [A, A.over]:
                path = os.path.join(outdir, B.name + ("" if B.over is B else ".module") + ".json")
                if B is A or not os.path.exists(path):
                    configio.dump_json(configio.member_to_config(B), path)
                    written.append(path)
    sys.stdout.write("\n".join(written) + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _shared_flags(defaults):
    sp = argparse.ArgumentParser(add_help=False)
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    sp.add_argument("--seed", type=int, default=d(0), metavar="S",
                    help="base RNG seed, recorded in every report")
    sp.add_argument("--format", choices=("text", "machine"), default=d("text"))
    sp.add_argument("--out", metavar="PATH", default=d(None),
                    help="write the report to a file")
    return sp


@functools.cache
def build_parser():
    """The argument parser, built once per process (parsing leaves it as it was)."""
    # the subcommand copies use SUPPRESS defaults so they never clobber
    # values already parsed from before the subcommand
    shared = _shared_flags(defaults=False)

    p = _Parser(
        prog="vertexcalc", parents=[_shared_flags(defaults=True)],
        description="Exact delta-calculus prover and vertex-structure axiom checker")
    # every report records a window and a witness bound, None unless given:
    # a check reads both off the member, so only prove-deltas and
    # replay-elem take them
    p.set_defaults(window=None, m_max=None)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("prove-deltas", parents=[shared],
                        help="prove both delta identities with traces")

    rp = sub.add_parser("replay-elem", parents=[shared],
                        help="replay the implication family on seeded "
                             "random instances")
    rp.add_argument("--n", type=_int_at_least(0), default=10,
                    help="number of instances")
    for sp, default in ((pp, 6), (rp, 8)):
        sp.add_argument("--window", type=_int_at_least(1), metavar="N",
                        help=f"coefficient window half-width (default {default})")
    rp.add_argument("--m-max", type=_int_at_least(0), dest="m_max", metavar="M",
                    help="pole-witness search bound (default: pole order + 2)")

    cp = sub.add_parser("check", parents=[shared],
                        help="run axiom checkers on a structure config")
    cp.add_argument("path")
    cp.add_argument("--axiom", action="append", choices=AXIOMS, default=None)

    mp = sub.add_parser("check-module", parents=[shared],
                        help="run module axiom checkers")
    mp.add_argument("path")
    mp.add_argument("--axiom", action="append", choices=MODULE_AXIOMS, default=None)

    ip = sub.add_parser("implication-matrix", parents=[shared],
                        help="replay every algebra replacement row on a corpus")
    ip.add_argument("path")

    tp = sub.add_parser("main-theorem", parents=[shared],
                        help="replay the module replacement rows on a corpus")
    tp.add_argument("path")

    ep = sub.add_parser("examples", parents=[shared],
                        help="emit the built-in corpus to disk")
    ep.add_argument("action", choices=("emit",))
    return p


def _refuse_flag_before_subcommand(parser, argv):
    """A usage error for a flag before the subcommand that only subcommands
    take, named with them: argparse would read its value as the subcommand.
    A flag matches as in argparse: whole, or by an unambiguous prefix."""
    sub = next(a for a in parser._actions if a.dest == "command")
    for arg in argv:
        if arg in sub.choices:
            return
        given = arg.split("=", 1)[0]
        takers = {f: [c for c, p in sub.choices.items() if f in p._option_string_actions]
                  for p in sub.choices.values() for f in p._option_string_actions}
        named = [f for f in takers if f == given] or [f for f in takers if f.startswith(given)]
        if given.startswith("--") and len(named) == 1 and not any(
                f.startswith(given) for f in parser._option_string_actions):
            parser.error(f"argument {named[0]}: taken by {' and '.join(takers[named[0]])} "
                         "only, given after the subcommand")


def main(argv=None) -> int:
    parser = build_parser()
    _refuse_flag_before_subcommand(parser, sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    handlers = {
        "prove-deltas": cmd_prove_deltas,
        "replay-elem": cmd_replay_elem,
        "check": lambda a: cmd_check(a, configio.load_structure),
        "check-module": lambda a: cmd_check(a, configio.load_module),
        "implication-matrix": lambda a: cmd_rows(
            a, False, "premises -> conclusions on the recorded window"),
        "main-theorem": lambda a: cmd_rows(
            a, True, "module replacement rows on the recorded window"),
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConsistencyViolationError, ProverFailureError) as err:
        print(f"consistency violation: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except VertexCalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
