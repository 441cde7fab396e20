"""Laurent polynomial arithmetic, splitting and semiring membership."""

import pytest
from hypothesis import given, strategies as st

from quivertl.laurent import (
    Laurent,
    ONE,
    SplitImpossible,
    ZERO,
    from_terms,
    split_symmetric,
    subtract_product,
)

from helpers import T, T_INV, is_in_plus_semiring, split_symmetric_by_difference


def L(*pairs):
    return Laurent(pairs)


small_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(Laurent)

nonneg_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(0, 9), max_size=6
).map(Laurent)


class TestArithmetic:
    def test_zero_and_one(self):
        assert not ZERO
        assert ONE.constant_term() == 1
        assert str(ZERO) == "0"

    def test_add_cancel(self):
        assert T + T_INV - T == T_INV
        assert L((3, 2)) + L((3, -2)) == ZERO

    def test_mul(self):
        assert (T + T_INV) * (T + T_INV) == L((2, 1), (0, 2), (-2, 1))
        assert T * T_INV == ONE

    def test_shift(self):
        assert L((0, 1), (2, 1)).shift(-1) == L((-1, 1), (1, 1))

    def test_bar(self):
        assert L((2, 1), (-1, 3)).bar() == L((-2, 1), (1, 3))
        assert (T + T_INV).bar() == T + T_INV

    def test_str_canonical(self):
        assert str(L((-1, 1), (1, 1))) == "t^-1 + t"
        assert str(L((0, 1), (2, 1))) == "1 + t^2"
        assert str(L((3, -2))) == "-2*t^3"

    def test_json_pairs_round_trip(self):
        p = L((-2, 3), (0, 1), (5, -4))
        assert Laurent(p.to_pairs()) == p
        assert p.to_pairs() == [[-2, 3], [0, 1], [5, -4]]

    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys, st.integers(-4, 4))
    def test_products_and_shifts_against_the_constructor(self, a, b, k):
        # ``Laurent(pairs)`` sums repeated exponents and drops zeros; the
        # one-term products, shift and bar build their terms directly
        pairs = [
            (e1 + e2, c1 * c2)
            for e1, c1 in a.terms.items()
            for e2, c2 in b.terms.items()
        ]
        assert (a * b).terms == Laurent(pairs).terms
        terms = a.terms.items()
        tripled = Laurent((e + k, 3 * c) for e, c in terms)
        assert (a * Laurent.term(k, 3)).terms == tripled.terms
        assert (a * -2).terms == Laurent((e, -2 * c) for e, c in terms).terms
        assert a.shift(k).terms == Laurent((e + k, c) for e, c in terms).terms
        assert a.bar().terms == Laurent((-e, c) for e, c in terms).terms
        assert (a + b - b).terms == a.terms

    def test_equality_with_ints_and_other_objects(self):
        three = Laurent.term(0, 3)
        assert three == 3 and 3 == three and not three != 3
        assert three != 2 and not three == 2
        assert ZERO == 0 and not ZERO != 0 and ZERO != 1
        assert Laurent.term(1) != 1 and not Laurent.term(1) == 1
        assert ONE == True  # noqa: E712 - bool is an int
        for other in ("1", 1.0, None, object()):
            assert ONE.__eq__(other) is NotImplemented
            assert ONE.__ne__(other) is NotImplemented
            assert not ONE == other
            assert ONE != other

    @given(small_polys, small_polys)
    def test_bar_is_ring_map(self, a, b):
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()
        assert a.bar().bar() == a


# term dicts as the hot loops hold them: no zero coefficient
term_dicts = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6
)


class TestSubtractProduct:
    """``subtract_product(acc, a, b)`` sets acc -= a * b in place."""

    @given(term_dicts, term_dicts, term_dicts)
    def test_matches_ring_arithmetic(self, acc, a, b):
        want = (Laurent(acc) - Laurent(a) * Laurent(b)).terms
        a_before, b_before = dict(a), dict(b)
        subtract_product(acc, a, b)
        assert acc == want
        assert 0 not in acc.values()
        assert a == a_before and b == b_before

    @given(term_dicts, term_dicts, term_dicts)
    def test_full_cancellation(self, a, b, rest):
        # subtracting the product that acc holds leaves exactly the rest
        acc = (Laurent(rest) + Laurent(a) * Laurent(b)).terms.copy()
        subtract_product(acc, a, b)
        assert acc == Laurent(rest).terms
        acc = (Laurent(a) * Laurent(b)).terms.copy()
        subtract_product(acc, a, b)
        assert acc == {}

    @given(term_dicts, term_dicts, st.integers(-9, -1))
    def test_negative_constant_factor(self, acc, a, ct):
        # n's recursion subtracts poly * ct with b = {0: ct}
        want = (Laurent(acc) - Laurent(a) * ct).terms
        subtract_product(acc, a, {0: ct})
        assert acc == want and 0 not in acc.values()

    @given(term_dicts, term_dicts)
    def test_empty_operands(self, acc, a):
        before = dict(acc)
        subtract_product(acc, a, {})
        subtract_product(acc, {}, a)
        assert acc == before
        empty = {}
        subtract_product(empty, a, {0: 1})
        assert empty == (-Laurent(a)).terms

    def test_from_terms_takes_the_dict_over(self):
        terms = {-1: 2, 3: -1}
        poly = from_terms(terms)
        assert poly.terms is terms
        assert poly == Laurent(terms) and str(poly) == "2*t^-1 - t^3"


class TestSplitSymmetric:
    def test_examples(self):
        e, n = split_symmetric(L((0, 1), (2, 1)))
        assert e == ONE and n == L((2, 1))
        e, n = split_symmetric(T + T_INV + L((2, 1)))
        assert e == T + T_INV and n == L((2, 1))
        e, n = split_symmetric(ONE)
        assert e == ONE and n == ZERO

    def test_impossible(self):
        # the forced symmetric part would leave t^1 with coefficient -1
        with pytest.raises(SplitImpossible):
            split_symmetric(L((-1, 2), (1, 1)))

    def test_positive_polynomial_is_its_own_positive_part(self):
        f = L((1, 2), (3, 1))
        e, n = split_symmetric(f)
        assert e == ZERO and n is f

    def test_negative_coefficient_in_positive_degree_is_impossible(self):
        # every exponent is positive, but n = f has a negative coefficient
        with pytest.raises(SplitImpossible):
            split_symmetric(L((1, 2), (2, -1)))

    @given(nonneg_polys)
    def test_split_recomposes(self, f):
        try:
            e, n = split_symmetric(f)
        except SplitImpossible:
            return
        assert e + n == f
        assert e.bar() == e
        assert all(k >= 1 and c > 0 for k, c in n.terms.items())

    @given(nonneg_polys, st.dictionaries(st.integers(1, 6), st.integers(0, 9), max_size=4))
    def test_split_unique_construction(self, sym_half, pos):
        # build f = (bar-symmetric) + (positive); the split must recover it
        e = sym_half + sym_half.bar() - Laurent({0: sym_half.constant_term()})
        n = Laurent(pos)
        got_e, got_n = split_symmetric(e + n)
        assert got_e == e and got_n == n


    @given(st.one_of(small_polys, nonneg_polys))
    def test_agrees_with_the_difference_formula(self, f):
        # the one-pass split against f - e: equal parts, and SplitImpossible
        # on exactly the same inputs
        try:
            want = split_symmetric_by_difference(f)
        except SplitImpossible:
            with pytest.raises(SplitImpossible):
                split_symmetric(f)
            return
        got = split_symmetric(f)
        assert [part.terms for part in got] == [part.terms for part in want]


class TestPlusSemiring:
    def test_members(self):
        assert is_in_plus_semiring(ZERO)
        assert is_in_plus_semiring(ONE)
        assert is_in_plus_semiring(T + T_INV)
        assert is_in_plus_semiring((T + T_INV) * (T + T_INV) + (T + T_INV) * 3 + 2)

    def test_non_members(self):
        assert not is_in_plus_semiring(T)
        assert not is_in_plus_semiring(T + T_INV - 1)
        assert not is_in_plus_semiring(L((2, 1), (0, 2), (-2, 1), (0, -1)))
        assert not is_in_plus_semiring(-ONE)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4))
    def test_sums_of_powers_are_members(self, terms):
        total = ZERO
        for k, c in terms:
            power = ONE
            for _ in range(k):
                power = power * (T + T_INV)
            total = total + power * c
        assert is_in_plus_semiring(total)
