"""Config-file and report serialization.

Structure configs:  {"name", "basis": [...], "modes": [{"u", "n", "v",
"coeff": {basis: "p/q"}}...], "vacuum": name-or-null, "tags": [...]}.
Module configs have "wbasis", "wmodes" and "w" for "basis", "modes" and
"v", and "over": "structure-name" for "vacuum", the base structure being
"<over>.json" next to the module file: a plain file name, or it is refused.
A config is a module config exactly when it has "over" (``is_module_config``).
A structure is its own regular module, so one reader (``member_from_config``)
and one writer (``member_to_config``) serve both kinds, through the keys and
refusal labels of the kind table ``KINDS``.

A file that cannot be read or decoded (not UTF-8, not JSON, nested too deep
or with a number too long for the JSON parser) is refused with ConfigError
("cannot read").  A JSON number is read exactly, never through a float.
A config is refused with ConfigError when it repeats a basis entry or a
mode record (u, n, v) / (u, n, w), has a basis or wbasis entry with a comma
(the weak checkers key their witnesses "u,v"), names anything outside the basis it
refers to, has a mode index that is not an integer or a coefficient that is
not a rational, lacks a required key (named as "missing key 'modes'") or
has a part of the wrong JSON type (named as "'basis' is not a JSON list"
or "'name' is not a JSON string"), and as a construction law refuses it
(a derived D that is not nilpotent or does not kill the vacuum).  Every
refusal of a file's member opens with the file's path (``_parsed``).

Machine reports are canonical JSON (sorted keys, fixed separators, no
timestamps or durations) so identical config + seed gives identical bytes.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import ConfigError, ConstructionError
from .scalars import Vec, parse_scalar
from .structures import ModuleStructure, VertexStructure


def _names(names, what):
    """A basis list of strings as a tuple, refusing repeated entries and
    entries with a comma (witness keys join names with one)."""
    names = tuple(names)
    for i, name in enumerate(names):
        _typed(name, "string", f"a '{what}' entry")
        if name in names[:i]:
            raise ConfigError(f"{what} lists {name!r} twice")
        if "," in name:
            raise ConfigError(f"{what} entry {name!r} contains a comma")
    return names


def _member(name, basis, what):
    """``name``, refused unless it is in ``basis``."""
    if name not in basis:
        raise ConfigError(f"{what} {name!r} is not in the basis {list(basis)}")
    return name


def _typed(value, kind, what):
    """``value``, refused unless it is a JSON ``kind``: list, object, string."""
    if not isinstance(value, {"list": list, "object": dict, "string": str}[kind]):
        raise ConfigError(f"{what} is not a JSON {kind}")
    return value


def _coeff(data, basis, kind):
    """A {basis: "p/q"} coefficient as a Vec, refusing names outside ``basis``
    and values that are not rationals (such as "1/0", "x/y" or a JSON
    boolean, which Python would read as 1 or 0), in the labels of ``kind``."""
    entries = {}
    for name, value in _typed(data, "object", kind.coeff).items():
        _member(name, basis, kind.key)
        try:
            if isinstance(value, bool):
                raise ValueError(value)
            entries[name] = parse_scalar(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{kind.mode} coefficient {value!r} of {name!r} "
                              "is not a rational") from None
    return Vec(entries)


class _Kind:
    """The keys of one kind of member config, and the labels of its
    refusals, each formatted once."""

    def __init__(self, basis, modes, target, mode, config):
        self.basis, self.modes, self.target, self.config = basis, modes, target, config
        self.basis_list, self.modes_list = f"'{basis}'", f"'{modes}'"
        self.entry, self.u, self.w = f"a '{modes}' entry", f"{mode} u", f"{mode} {target}"
        self.mode, self.coeff, self.key = mode, f"{mode} 'coeff'", f"{mode} coefficient key"


# the keys and refusal labels of each kind of member config
KINDS = {"structure": _Kind("basis", "modes", "v", "mode", "structure"),
         "module": _Kind("wbasis", "wmodes", "w", "module mode", "module")}


def member_to_config(A: ModuleStructure) -> dict:
    """The config of a structure or of a module."""
    kind = KINDS["structure" if A.over is A else "module"]
    own = {"vacuum": A.vacuum} if A.over is A else {"over": A.over.name}
    return {"name": A.name, kind.basis: list(A.wbasis), **own, "tags": list(A.tags),
            kind.modes: [{"u": u, "n": n, kind.target: w, "coeff": modes[n].to_json()}
                         for (u, w), modes in sorted(A.ywtable.items())
                         for n in sorted(modes)]}


def member_from_config(data: dict, over: VertexStructure | None = None) -> ModuleStructure:
    """The structure of a structure config, or, given the structure ``over``
    that it names, the module of a module config."""
    kind = KINDS["structure" if over is None else "module"]
    try:
        if over is not None and data["over"] != over.name:
            raise ConfigError(
                f"module expects base {data['over']!r}, got {over.name!r}")
        basis = _names(_typed(data[kind.basis], "list", kind.basis_list), kind.basis)
        ubasis = basis if over is None else over.basis
        vacuum = data.get("vacuum") if over is None else None
        if vacuum is not None:
            _member(vacuum, basis, "vacuum")
        table, target = {}, kind.target
        for rec in _typed(data[kind.modes], "list", kind.modes_list):
            _typed(rec, "object", kind.entry)
            u = _member(rec["u"], ubasis, kind.u)
            w = _member(rec[target], basis, kind.w)
            n = rec["n"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise ConfigError(f"mode index {n!r} is not an integer")
            coeff, modes = _coeff(rec["coeff"], basis, kind), table.setdefault((u, w), {})
            if n in modes:
                raise ConfigError(f"{kind.mode} ({u}, {n}, {w}) is listed twice")
            modes[n] = coeff
        name = _typed(data["name"], "string", "'name'")
        tags = _typed(data.get("tags", []), "list", "'tags'")
        if over is None:
            return VertexStructure(name, basis, table, vacuum=vacuum, tags=tags)
        return ModuleStructure(name, over, basis, table, tags=tags)
    except KeyError as err:
        raise ConfigError(f"bad {kind.config} config: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as err:
        raise ConfigError(f"bad {kind.config} config: {err}") from err


def dump_json(data, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(data))
        fh.write("\n")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class _Number(Fraction):
    """A JSON number with a fraction or an exponent: read exactly, shown as
    written, and refused past an exponent of +-4300, as Python refuses a
    JSON integer of more digits."""

    def __new__(cls, text):
        if abs(int(text.lower().partition("e")[2] or 0)) > 4300:
            raise ValueError("a JSON number has an exponent beyond +-4300")
        number = super().__new__(cls, text)
        number.text = text
        return number

    def __repr__(self):
        return self.text


def load_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_Number)
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return data


def is_module_config(data) -> bool:
    """Whether a config describes a module: it names the structure it is
    over.  Every loader and the corpus reader decide by this one test."""
    return "over" in data


def _parsed(path, data, over=None):
    """``member_from_config(data, over)``: every refusal of the member of the
    file at ``path``, by the reader (ConfigError) or by a construction law
    (ConstructionError), as a ConfigError that opens with the path."""
    try:
        return member_from_config(data, over)
    except (ConfigError, ConstructionError) as err:
        raise ConfigError(f"{path}: {err}") from None


def load_structure(path, data=None, *, named_by=None) -> VertexStructure:
    """The structure of the config at ``path``, ``data`` if it is read.  A
    module config is refused, as the base of ``named_by``, the module key
    that names ``path``, when one is given."""
    data = load_json(path) if data is None else data
    if is_module_config(data):
        raise ConfigError(f"{path} is a module config; use check-module" if named_by is None
                          else f"{named_by} names {path}, a module config, not a structure")
    return _parsed(path, data)


def load_module(path, data=None, base=load_structure) -> ModuleStructure:
    """The module of the config at ``path``, ``data`` if it is read, over
    ``base`` of its base structure's path, "<over>.json" next to it, and
    of the module key that names it (``load_structure``'s ``named_by``)."""
    data = load_json(path) if data is None else data
    if not is_module_config(data):
        raise ConfigError(f"{path} is not a module config")
    over = data["over"]
    if not isinstance(over, str) or over in ("", ".", "..") or os.path.basename(over) != over:
        raise ConfigError(f"{path}: 'over' {over!r} is not a plain file name")
    base_path = os.path.join(os.path.dirname(path) or ".", f"{over}.json")
    if not os.path.exists(base_path):
        raise ConfigError(f"{path}: 'over' {over!r} names no base structure file "
                          f"{base_path}")
    return _parsed(path, data, base(base_path, named_by=f"{path}: 'over' {over!r}"))


def machine_report(command, seed, params, records) -> str:
    """Canonical machine-readable report; byte-identical for equal inputs."""
    return canonical_json({
        "command": command,
        "seed": seed,
        "params": params,
        "records": records,
    }) + "\n"


def text_report(command, seed, params, records, durations=None) -> str:
    lines = [f"# {command} (seed={seed}, params={params})"]
    for rec in records:
        wit = f"  witness={rec['witness']}" if rec.get("witness") else ""
        lines.append(f"{rec['verdict']:<8} {rec['id']}  [{rec['anchor']}]{wit}")
    if durations is not None:
        lines.append(f"# wall-clock: {durations:.3f}s")
    counts = {}
    for rec in records:
        counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
    lines.append("# " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines) + "\n"
