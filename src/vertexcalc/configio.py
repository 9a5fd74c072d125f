"""Config-file and report serialization.

Structure configs:  {"name", "basis": [...], "modes": [{"u", "n", "v",
"coeff": {basis: "p/q"}}...], "vacuum": name-or-null, "tags": [...]}.
Module configs extend this with {"wbasis", "wmodes": [{"u", "n", "w",
"coeff"}...], "over": "structure-name"}; the base structure is resolved as
"<over>.json" next to the module file.  A config is a module config exactly
when it has "over" (``is_module_config``); ``load_structure`` refuses one.

A file that cannot be read or decoded (not UTF-8, not JSON, nested too deep
or with a number too long for the JSON parser) is refused with ConfigError
("cannot read").  A JSON number is read exactly, never through a float.
A config is refused with ConfigError when it repeats a basis entry or a
mode record (u, n, v) / (u, n, w), has a basis or wbasis entry with a comma
(the weak checkers key their witnesses "u,v"), names anything outside the basis it
refers to, has a mode index that is not an integer or a coefficient that is
not a rational, lacks a required key (named as "missing key 'modes'") or
has a part of the wrong JSON type (named as "'basis' is not a JSON list"
or "'name' is not a JSON string"); the message opens with the file's path.

Machine reports are canonical JSON (sorted keys, fixed separators, no
timestamps or durations) so identical config + seed gives identical bytes.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import ConfigError
from .modules import ModuleStructure
from .scalars import Vec, parse_scalar
from .structures import VertexStructure


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


def _mode_index(n):
    """A mode index, refused unless it is a JSON integer."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(f"mode index {n!r} is not an integer")
    return n


def _typed(value, kind, what):
    """``value``, refused unless it is a JSON ``kind``: list, object, string."""
    if not isinstance(value, {"list": list, "object": dict, "string": str}[kind]):
        raise ConfigError(f"{what} is not a JSON {kind}")
    return value


def _add_mode(table, u, n, v, coeff, what):
    """Enter one mode record, refusing a second record of the same (u, n, v)."""
    modes = table.setdefault((u, v), {})
    if n in modes:
        raise ConfigError(f"{what} ({u}, {n}, {v}) is listed twice")
    modes[n] = coeff


def _coeff(data, basis, what):
    """A {basis: "p/q"} coefficient as a Vec, refusing names outside ``basis``
    and values that are not rationals (such as "1/0", "x/y" or a JSON
    boolean, which Python would read as 1 or 0)."""
    entries = {}
    for name, value in _typed(data, "object", f"{what} 'coeff'").items():
        _member(name, basis, f"{what} coefficient key")
        try:
            if isinstance(value, bool):
                raise ValueError(value)
            entries[name] = parse_scalar(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{what} coefficient {value!r} of {name!r} "
                              "is not a rational") from None
    return Vec(entries)


def _mode_records(table, target):
    """A mode table as config records, the acted-on name under ``target``."""
    return [{"u": u, "n": n, target: w, "coeff": modes[n].to_json()}
            for (u, w), modes in sorted(table.items()) for n in sorted(modes)]


def structure_to_config(S: VertexStructure) -> dict:
    return {"name": S.name, "basis": list(S.basis),
            "modes": _mode_records(S.ytable, "v"),
            "vacuum": S.vacuum, "tags": list(S.tags)}


def structure_from_config(data: dict) -> VertexStructure:
    try:
        basis = _names(_typed(data["basis"], "list", "'basis'"), "basis")
        vacuum = data.get("vacuum")
        if vacuum is not None:
            _member(vacuum, basis, "vacuum")
        table = {}
        for rec in _typed(data["modes"], "list", "'modes'"):
            _typed(rec, "object", "a 'modes' entry")
            u = _member(rec["u"], basis, "mode u")
            v = _member(rec["v"], basis, "mode v")
            _add_mode(table, u, _mode_index(rec["n"]), v,
                      _coeff(rec["coeff"], basis, "mode"), "mode")
        return VertexStructure(_typed(data["name"], "string", "'name'"),
                               basis, table, vacuum=vacuum,
                               tags=_typed(data.get("tags", []), "list", "'tags'"))
    except KeyError as err:
        raise ConfigError(f"bad structure config: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as err:
        raise ConfigError(f"bad structure config: {err}") from err


def module_to_config(M: ModuleStructure) -> dict:
    return {"name": M.name, "over": M.over.name,
            "wbasis": list(M.wbasis), "wmodes": _mode_records(M.ywtable, "w"),
            "tags": list(M.tags)}


def module_from_config(data: dict, over: VertexStructure) -> ModuleStructure:
    try:
        if data["over"] != over.name:
            raise ConfigError(
                f"module expects base {data['over']!r}, got {over.name!r}")
        wbasis = _names(_typed(data["wbasis"], "list", "'wbasis'"), "wbasis")
        table = {}
        for rec in _typed(data["wmodes"], "list", "'wmodes'"):
            _typed(rec, "object", "a 'wmodes' entry")
            u = _member(rec["u"], over.basis, "module mode u")
            w = _member(rec["w"], wbasis, "module mode w")
            _add_mode(table, u, _mode_index(rec["n"]), w,
                      _coeff(rec["coeff"], wbasis, "module mode"), "module mode")
        return ModuleStructure(_typed(data["name"], "string", "'name'"),
                               over, wbasis, table,
                               tags=_typed(data.get("tags", []), "list", "'tags'"))
    except KeyError as err:
        raise ConfigError(f"bad module config: missing key {err}") from err
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as err:
        raise ConfigError(f"bad module config: {err}") from err


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


def _parsed(path, parse, *args):
    """``parse(*args)``, with the path of the file it reads before any
    ConfigError it raises."""
    try:
        return parse(*args)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def load_structure(path, data=None) -> VertexStructure:
    """The structure of the config at ``path``, ``data`` if it is read."""
    data = load_json(path) if data is None else data
    if is_module_config(data):
        raise ConfigError(f"{path} is a module config; use check-module")
    return _parsed(path, structure_from_config, data)


def load_module(path, data=None, base=load_structure) -> ModuleStructure:
    """The module of the config at ``path``, ``data`` if it is read, over
    ``base`` of its base structure's path."""
    data = load_json(path) if data is None else data
    if not is_module_config(data):
        raise ConfigError(f"{path} is not a module config")
    base_path = os.path.join(os.path.dirname(path) or ".", f"{data['over']}.json")
    if not os.path.exists(base_path):
        raise ConfigError(f"base structure file {base_path} not found")
    return _parsed(path, module_from_config, data, base(base_path))


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
