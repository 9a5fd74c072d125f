from collections import Counter

import pytest

from vertexcalc import configio
from vertexcalc.structures import ModuleStructure


@pytest.fixture
def slot_product_calls(monkeypatch):
    """Counter of compose_yw / iterate_yw calls per (action, product, u, v, w)."""
    calls = Counter()
    for name in ("compose_yw", "iterate_yw"):
        def counted(A, a, xa, b, xb, w, _name=name,
                    _original=getattr(ModuleStructure, name)):
            calls[(A, _name, a, b, w)] += 1
            return _original(A, a, xa, b, xb, w)
        monkeypatch.setattr(ModuleStructure, name, counted)
    return calls


def _ut2_records(target):
    """Mode records of ut2, the upper-triangular 2x2 matrices with basis
    (one, p = E11, n = E12) and Y(u,x)v = (e^(xD)u).v for D = ad(n), so that
    D p = -n; ``target`` names the acted-on element's key."""
    one = [("one", -1, b, b, "1") for b in ("one", "p", "n")]
    return [{"u": u, "n": n, target: v, "coeff": {img: c}}
            for u, n, v, img, c in one + [
                ("p", -1, "one", "p", "1"), ("n", -1, "one", "n", "1"),
                ("p", -1, "p", "p", "1"), ("p", -1, "n", "n", "1"),
                ("p", -2, "one", "n", "-1")]]


@pytest.fixture
def ut2_dir(tmp_path):
    """A directory holding ut2 and its regular module (same records as
    ``wmodes``); kept out of the emitted corpus."""
    basis = ["one", "p", "n"]
    configio.dump_json({"name": "ut2", "basis": basis, "vacuum": "one",
                        "modes": _ut2_records("v"), "tags": []},
                       tmp_path / "ut2.json")
    configio.dump_json({"name": "ut2-regular", "over": "ut2", "wbasis": basis,
                        "wmodes": _ut2_records("w"), "tags": []},
                       tmp_path / "ut2-regular.module.json")
    return tmp_path
