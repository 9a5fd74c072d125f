import random
from fractions import Fraction

import pytest
from conftest import multinomial

from vertexcalc.scalars import (
    Vec,
    binom,
    format_scalar,
    parse_scalar,
)


def test_binom_small_factorial_case():
    assert binom(3, 2) == 3


def test_binom_negative_upper_index():
    # (-1)(-2)/2! computed by hand from the falling-factorial formula
    assert binom(-1, 2) == 1


def test_binom_empty_product():
    for n in (-7, -1, 0, 4, 123):
        assert binom(n, 0) == 1


def test_binom_rejects_negative_k():
    # twice: a cached binom must not swallow the error on a repeat call
    for _ in range(2):
        with pytest.raises(ValueError):
            binom(2, -1)


def test_binom_matches_falling_factorial_reference():
    for n in range(-30, 31):
        for k in range(0, 31):
            num, den = 1, 1
            for i in range(k):
                num *= n - i
                den *= i + 1
            assert num % den == 0, (n, k)
            assert binom(n, k) == num // den, (n, k)


def test_binom_pascal_recurrence():
    for n in range(-10, 11):
        for k in range(1, 11):
            assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


def test_binom_always_integer_valued():
    for n in range(-12, 13):
        for k in range(0, 9):
            assert isinstance(binom(n, k), int)


def test_multinomial():
    assert multinomial(()) == 1
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1)) == 6


def test_rational_arithmetic_is_exact():
    rng = random.Random(20240817)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


def test_rational_string_round_trip():
    assert format_scalar(Fraction(1, 2)) == "1/2"
    assert format_scalar(Fraction(-3, 1)) == "-3"
    assert parse_scalar("7/3") == Fraction(7, 3)
    assert parse_scalar("-4") == Fraction(-4)
    assert parse_scalar(format_scalar(Fraction(-10, 4))) == Fraction(-5, 2)


def test_vec_never_stores_zeros():
    v = Vec({"a": 0, "b": 1})
    assert v.entries == {"b": 1}
    w = v + Vec({"b": -1})
    assert w.entries == {}
    assert not w


def test_vec_json_round_trip():
    v = Vec({"e0": Fraction(-1, 2), "e3": 4})
    assert v.to_json() == {"e0": "-1/2", "e3": "4"}


def test_parse_scalar_is_int_exactly_when_integral():
    assert type(parse_scalar("4/2")) is int and parse_scalar("4/2") == 2
    assert type(parse_scalar(Fraction(-6, 3))) is int
    assert type(parse_scalar("1/2")) is Fraction
    assert parse_scalar("1/2") == Fraction(1, 2)


def test_vec_arithmetic_keeps_integral_entries_as_int():
    half = Vec({"a": Fraction(1, 2), "b": Fraction(3, 2)})
    for v in (Vec({"a": Fraction(4, 2)}), half.scale(2), half.scale(Fraction(2)),
              half + half, half - Vec({"a": Fraction(-1, 2), "b": Fraction(1, 2)})):
        assert v.entries and all(type(c) is int for c in v.entries.values()), v
    assert half.scale(3).entries == {"a": Fraction(3, 2), "b": Fraction(9, 2)}
    assert hash(half.scale(2)) == hash(Vec({"a": 1, "b": 3}))


def test_scaling_by_one_returns_the_vector_itself():
    v = Vec({"a": Fraction(1, 2), "b": 3})
    assert v.scale(1) is v
    assert v.scale(Fraction(1)) is v
    assert v * 1 is v and 1 * v is v
    assert v * Fraction(1) is v and Fraction(1) * v is v
    assert v.scale(-1) is not v and v.scale(-1) == -v
    assert v == Vec({"a": Fraction(1, 2), "b": 3})


def test_to_json_is_unchanged_by_integral_storage():
    v = Vec({"a": Fraction(3, 1), "b": Fraction(-1, 2), "c": 4})
    assert v.to_json() == {"a": "3", "b": "-1/2", "c": "4"}
    assert v.scale(2).to_json() == {"a": "6", "b": "-1", "c": "8"}
    assert format_scalar(-7) == "-7" and format_scalar(Fraction(-14, 2)) == "-7"


def _rational_entries(tables):
    for table in tables:
        for modes in table.values():
            for vec in modes.values():
                yield from vec.entries.values()


def test_loaded_corpus_stores_int_exactly_when_integral(tmp_path):
    from vertexcalc import configio
    from vertexcalc.cli import main
    assert main(["examples", "emit", "--out", str(tmp_path)]) == 0
    seen = set()
    for path in sorted(tmp_path.glob("*.json")):
        data = configio.load_json(path)
        if configio.is_module_config(data):
            M = configio.load_module(str(path))
            tables = (M.ywtable, M.over.ytable)
            assert configio.member_to_config(M) == data, path.name
        else:
            S = configio.load_structure(str(path))
            tables = (S.ytable,)
            assert configio.member_to_config(S) == data, path.name
        for c in _rational_entries(tables):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
                (path.name, c)
            seen.add(type(c))
    assert int in seen


def test_coefficient_operators_refuse_mixed_vector_arithmetic():
    v = Vec({"a": 1, "b": Fraction(1, 3)})
    assert 3 * v == v * 3 == Vec({"a": 3, "b": 1})
    assert Fraction(3) * v == v * Fraction(3) == Vec({"a": 3, "b": 1})
    assert 0 + v is v and v + 0 is v and Fraction(0) + v is v
    assert v + v == v.scale(2)
    assert not 0 * v and not v * 0
    with pytest.raises(TypeError, match="^cannot multiply two vector coefficients$"):
        v * v
    for a, b in ((1, v), (v, Fraction(1, 2)), (Fraction(-1, 2), v), (v, 2)):
        with pytest.raises(TypeError, match="^cannot add scalar and vector coefficients$"):
            a + b


def _random_scalar(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _random_vec(rng):
    return Vec({name: _random_scalar(rng) for name in rng.sample("abcd", 3)})


def _same(x, y):
    """Equal, and of the same type entry by entry."""
    if type(x) is Vec:
        return (type(y) is Vec and x.entries == y.entries
                and all(type(c) is type(y.entries[k]) for k, c in x.entries.items()))
    return x == y and type(x) is type(y)


def test_one_pass_subtraction_equals_adding_the_negation():
    # Vec's subtraction operators against the two-pass a + (-b) they replace
    rng = random.Random(1010)
    for _ in range(400):
        a, b = _random_vec(rng), _random_vec(rng)
        diff = a - b
        assert _same(diff, a + (-b)), (a, b)
        assert all(type(c) is int or c.denominator > 1 for c in diff.entries.values())
        assert not a - a
        x, y = _random_scalar(rng), _random_scalar(rng)
        for p, q in ((x, y), (a, b), (0, b), (a, 0)):
            assert _same(p - q, p + q * -1), (p, q)
            assert _same(p - q, p + -1 * q), (p, q)


def test_one_pass_subtraction_refuses_mixed_vector_arithmetic():
    v = Vec({"a": 1, "b": Fraction(1, 3)})
    for a, b in ((1, v), (Fraction(-1, 2), v), (v, 2), (v, Fraction(1, 2))):
        with pytest.raises(TypeError, match="^cannot subtract scalar and vector coefficients$"):
            a - b
    assert v - 0 is v and v - Fraction(0) is v
    assert 0 - v == -v == v.scale(-1) and Fraction(0) - v == -v
