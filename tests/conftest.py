from collections import Counter

import pytest

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
