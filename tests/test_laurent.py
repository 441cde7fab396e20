"""Laurent values, the term-dict arithmetic, splitting and semiring
membership."""

import pytest
from hypothesis import given, strategies as st

from quivertl.laurent import (
    Laurent,
    ONE,
    SplitImpossible,
    ZERO,
    canonical,
    from_terms,
    plus_shifted,
    split_symmetric,
    subtract_product,
    value_table,
)

from helpers import (
    T,
    T_INV,
    add,
    is_in_plus_semiring,
    mul,
    split_symmetric_by_difference,
    sub,
)


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
        # the constructor sums repeated exponents and drops a sum of 0
        assert L((1, 1), (-1, 1), (1, -1)) == T_INV
        assert L((3, 2), (3, -2)) == ZERO
        assert add(T, T_INV) == L((1, 1), (-1, 1))
        assert sub(add(T, T_INV), T) == T_INV

    def test_mul(self):
        assert mul(add(T, T_INV), add(T, T_INV)) == L((2, 1), (0, 2), (-2, 1))
        assert mul(T, T_INV) == ONE

    def test_shift(self):
        # a + t^k * b on term dicts, which are only read
        a, b = {0: 1, 2: 1}, {1: -1, 3: 2}
        assert plus_shifted({}, a, -1) == {-1: 1, 1: 1}
        assert plus_shifted(a, b, -1) == {2: 3}  # the constant cancels
        assert (a, b) == ({0: 1, 2: 1}, {1: -1, 3: 2})

    def test_bar(self):
        assert L((2, 1), (-1, 3)).bar() == L((-2, 1), (1, 3))
        assert L((1, 1), (-1, 1)).bar() == L((1, 1), (-1, 1))

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
        # of the tests' reference sums and products, on the constructor
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert sub(add(a, b), b) == a

    @given(small_polys, small_polys, st.integers(-4, 4))
    def test_products_and_shifts_against_the_constructor(self, a, b, k):
        # ``Laurent(pairs)`` sums repeated exponents and drops zeros: the
        # reference for ``subtract_product`` by one term, ``plus_shifted``
        # and bar
        terms = a.terms.items()
        acc = {}
        subtract_product(acc, a.terms, {k: 3})
        assert acc == Laurent((e + k, -3 * c) for e, c in terms).terms
        moved = Laurent((e + k, c) for e, c in terms)
        assert plus_shifted({}, a.terms, k) == moved.terms
        shifted = ((e + k, c) for e, c in b.terms.items())
        assert plus_shifted(a.terms, b.terms, k) == Laurent([*terms, *shifted]).terms
        assert a.bar().terms == Laurent((-e, c) for e, c in terms).terms

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
        assert add(a, b).bar() == add(a.bar(), b.bar())
        assert mul(a, b).bar() == mul(a.bar(), b.bar())
        assert a.bar().bar() == a


# term dicts as the hot loops hold them: no zero coefficient
term_dicts = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6
)


class TestSubtractProduct:
    """``subtract_product(acc, a, b)`` sets acc -= a * b in place."""

    @given(term_dicts, term_dicts, term_dicts)
    def test_matches_ring_arithmetic(self, acc, a, b):
        want = sub(Laurent(acc), mul(Laurent(a), Laurent(b))).terms
        a_before, b_before = dict(a), dict(b)
        subtract_product(acc, a, b)
        assert acc == want
        assert 0 not in acc.values()
        assert a == a_before and b == b_before

    @given(term_dicts, term_dicts, term_dicts)
    def test_full_cancellation(self, a, b, rest):
        # subtracting the product that acc holds leaves exactly the rest
        acc = add(Laurent(rest), mul(Laurent(a), Laurent(b))).terms
        subtract_product(acc, a, b)
        assert acc == Laurent(rest).terms
        acc = mul(Laurent(a), Laurent(b)).terms
        subtract_product(acc, a, b)
        assert acc == {}

    @given(term_dicts, term_dicts, st.integers(-9, -1))
    def test_negative_constant_factor(self, acc, a, ct):
        # n's recursion subtracts poly * ct with b = {0: ct}
        want = sub(Laurent(acc), mul(Laurent(a), Laurent.term(0, ct))).terms
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
        assert empty == Laurent((e, -c) for e, c in a.items()).terms

    def test_from_terms_takes_the_dict_over(self):
        terms = {-1: 2, 3: -1}
        poly = from_terms(terms)
        assert poly.terms is terms
        assert poly == Laurent(terms) and str(poly) == "2*t^-1 - t^3"


class TestSplitSymmetric:
    def test_examples(self):
        e, n = split_symmetric(L((0, 1), (2, 1)))
        assert e == ONE and n == L((2, 1))
        e, n = split_symmetric(L((1, 1), (-1, 1), (2, 1)))
        assert e == L((1, 1), (-1, 1)) and n == L((2, 1))
        e, n = split_symmetric(ONE)
        assert e == ONE and n == ZERO
        # an oracle remainder that cancelled to zero stores neither value
        e, n = split_symmetric(ZERO)
        assert not e.terms and not n.terms

    def test_impossible(self):
        # the forced symmetric part would leave t^1 with coefficient -1
        with pytest.raises(SplitImpossible):
            split_symmetric(L((-1, 2), (1, 1)))

    def test_positive_polynomial_is_its_own_positive_part(self):
        # its positive part is a new value equal to f: the oracle tests
        # positivity before it calls the split, so the split has no
        # shortcut that returns f itself
        f = L((1, 2), (3, 1))
        e, n = split_symmetric(f)
        assert e == ZERO and n == f

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
        assert add(e, n) == f
        assert e.bar() == e
        assert all(k >= 1 and c > 0 for k, c in n.terms.items())

    @given(nonneg_polys, st.dictionaries(st.integers(1, 6), st.integers(0, 9), max_size=4))
    def test_split_unique_construction(self, sym_half, pos):
        # build f = (bar-symmetric) + (positive); the split must recover it
        e = sub(add(sym_half, sym_half.bar()), Laurent({0: sym_half.constant_term()}))
        n = Laurent(pos)
        got_e, got_n = split_symmetric(add(e, n))
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


class TestCanonical:
    """``canonical`` keeps one value per distinct polynomial in its table."""

    def table(self):
        return {frozenset(ONE.terms.items()): ONE}

    def test_equal_dicts_in_any_order_give_one_object(self):
        table = self.table()
        first = canonical(table, {2: 1, -1: 3, 0: 5})
        assert canonical(table, {0: 5, 2: 1, -1: 3}) is first
        assert canonical(table, {-1: 3, 0: 5, 2: 1}) is first
        assert canonical(table, {2: 1, -1: 3}) is not first
        assert len(table) == 3

    def test_a_miss_takes_the_dict_over(self):
        table = self.table()
        terms = {1: 2, 3: -1}
        got = canonical(table, terms)
        assert got.terms is terms
        assert table[frozenset(terms.items())] is got

    def test_a_hit_leaves_the_table_unchanged(self):
        table = self.table()
        stored = canonical(table, {1: 2, 3: -1})
        before = dict(table)
        terms = {3: -1, 1: 2}
        assert canonical(table, terms) is stored
        assert table == before and all(table[k] is v for k, v in before.items())
        assert stored.terms is not terms and terms == {3: -1, 1: 2}

    def test_one_is_stored_as_one(self):
        assert canonical(self.table(), {0: 1}) is ONE

    def test_value_table_is_made_once_per_geometry(self):
        class Geom:
            caches = {}

        table = value_table(Geom)
        assert Geom.caches == {"values": table}
        assert table == {frozenset({(0, 1)}): ONE}
        assert value_table(Geom) is table


class TestPlusSemiring:
    def test_members(self):
        assert is_in_plus_semiring(ZERO)
        assert is_in_plus_semiring(ONE)
        assert is_in_plus_semiring(L((1, 1), (-1, 1)))
        # (t + t^-1)^2 + 3 (t + t^-1) + 2
        assert is_in_plus_semiring(L((2, 1), (1, 3), (0, 4), (-1, 3), (-2, 1)))

    def test_non_members(self):
        assert not is_in_plus_semiring(T)
        assert not is_in_plus_semiring(L((1, 1), (0, -1), (-1, 1)))
        assert not is_in_plus_semiring(L((2, 1), (0, 2), (-2, 1), (0, -1)))
        assert not is_in_plus_semiring(Laurent.term(0, -1))

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4))
    def test_sums_of_powers_are_members(self, terms):
        total = ZERO
        for k, c in terms:
            power = ONE
            for _ in range(k):
                power = mul(power, add(T, T_INV))
            total = add(total, mul(power, Laurent.term(0, c)))
        assert is_in_plus_semiring(total)
