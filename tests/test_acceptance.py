"""Acceptance suite.

Seven end-to-end criteria covering the worked examples, the level-two
closed forms, the cross-oracle property grid and stability.  Every value
is exact; no tolerances.  Multicharge sweeps run one representative per
shift class, since adding a constant to the multicharge changes nothing
(see test_decomposition.TestDecompositionMatrix
.test_multicharge_shift_invariance).
"""

from quivertl.geometry import geometry_for
from quivertl.laurent import Laurent, ONE, ZERO
from quivertl.params import Params, ParamsError
from quivertl.paths import (
    alcove_series,
    distinguished_path,
    graded_path_count,
    paths_between,
    reflection_closure,
)
from quivertl.soergel import n_function, run_all
from quivertl.decomposition import (
    block_of,
    blocks,
    decomposition_matrix,
    kn_oracle,
    level2_closed_form,
    level2_label,
    matrices_equal,
)
from quivertl.tableaux import loading

from helpers import (
    T,
    add,
    component_word,
    gallery_along,
    is_in_plus_semiring,
    mul,
    semistandard_tableaux,
    stability_check,
    tableau_degree,
    verify_factorization,
)


def canonical_multicharges(l, e):
    """One representative per shift class of valid multicharges: first
    entry pinned to 0."""
    found = []

    def extend(prefix):
        if len(prefix) == l:
            try:
                found.append(Params(l, e, prefix).kappa)
            except ParamsError:
                pass
            return
        for k in range(1, e):
            extend(prefix + (k,))

    extend((0,))
    return found


class TestCriterion1IntroBlock:
    """l=3, e=8, kappa=(0,4,6), n=13, the block of alpha=(4,6,3)."""

    def test_both_routes(self):
        params = Params(3, 8, (0, 4, 6))
        alpha, beta, gamma = (4, 6, 3), (5, 6, 2), (4, 9, 0)
        block = block_of(params, 13, alpha)
        soergel_route = decomposition_matrix(params, block)
        oracle_route = kn_oracle(params, block)
        assert matrices_equal(soergel_route, oracle_route)
        for dm in (soergel_route, oracle_route):
            assert dm.d(alpha, beta) == Laurent.term(1)
            assert dm.d(beta, gamma) == Laurent.term(2)
            assert dm.d(alpha, gamma) == Laurent.term(3)
            assert dm.standard_dim(alpha, gamma) == Laurent({1: 1, 3: 1})
            assert dm.standard_dim(beta, gamma) == Laurent({0: 1, 2: 1})
            assert dm.character(beta, gamma) == ONE
        closure = reflection_closure(params, distinguished_path(params, gamma))
        assert len(closure) == 8
        print("PASS criterion 1: intro block via both routes")


class TestCriterion2RankOne:
    """l=2, e=4, kappa=(0,2), n=11, mu=(0,11): the six-alcove strip."""

    def test_rows_and_degrees(self):
        params = Params(2, 4, (0, 2))
        mu = (0, 11)
        series = alcove_series(params, distinguished_path(params, mu))
        gallery = gallery_along(params, series)
        m, n, e = run_all(params, gallery)
        target = gallery.end
        g = geometry_for(params)
        # row over the alcoves at floors -3..2, left to right
        row = [m[k] for k in sorted(m)]
        assert row == [
            ONE,
            T,
            Laurent({0: 1, 2: 1}),
            Laurent({1: 1, 3: 1}),
            Laurent.term(2),
            T,
        ]
        assert n.get(g.alcove_of((4, 7)), ZERO) == Laurent.term(2)
        assert n.get(g.alcove_of((5, 6)), ZERO) == Laurent.term(3)
        assert e.get(g.alcove_of((4, 7)), ZERO) == ONE
        assert e.get(g.alcove_of((5, 6)), ZERO) == ZERO
        assert e.get(target, ZERO) == ONE
        degs = lambda lam: sorted(d for _, d in paths_between(params, lam, mu))
        assert degs((4, 7)) == [0, 2]
        assert degs((5, 6)) == [1, 3]
        print("PASS criterion 2: rank-one strip rows and degrees")


class TestCriterion3NegativeDegree:
    """l=3, e=6, kappa=(0,2,4), n=21, mu=(4,17,0): a character with a
    genuinely negative exponent."""

    def test_factorisation(self):
        params = Params(3, 6, (0, 2, 4))
        mu = (4, 17, 0)
        series = alcove_series(params, distinguished_path(params, mu))
        m, _, e = run_all(params, gallery_along(params, series))
        g = geometry_for(params)
        assert e.get(g.alcove_of((6, 9, 0)), ZERO) == Laurent({-1: 1, 1: 1})
        assert e.get(g.alcove_of((15, 4, 2)), ZERO) == ONE
        assert e.get(g.alcove_of(mu), ZERO) == ONE
        assert verify_factorization(params, series)
        n_a = n_function(g, g.alcove_of(mu))
        n_b = n_function(g, g.alcove_of((15, 4, 2)))
        n_c = n_function(g, g.alcove_of((6, 9, 0)))
        for key in set(m) | set(n_a) | set(n_b) | set(n_c):
            assert m.get(key, ZERO) == add(
                n_a.get(key, ZERO),
                n_b.get(key, ZERO),
                mul(Laurent({-1: 1, 1: 1}), n_c.get(key, ZERO)),
            )
        print("PASS criterion 3: negative-degree factorisation")


class TestCriterion4Tableaux:
    """l=2, e=4, kappa=(0,2), n=7: loadings, degrees, component word."""

    def test_tableau_layer(self):
        params = Params(2, 4, (0, 2))

        def xs(lam):
            return tuple(x for x, _, _ in loading(params, lam))

        assert xs((7, 0)) == (0, 2, 4, 6, 8, 10, 12)
        assert xs((6, 1)) == (0, 1, 2, 4, 6, 8, 10)
        assert xs((3, 4)) == (0, 1, 2, 3, 4, 5, 7)
        assert xs((2, 5)) == (0, 1, 2, 3, 5, 7, 9)
        degrees = []
        for mu in [(7, 0), (6, 1), (3, 4), (2, 5)]:
            for tab in semistandard_tableaux(params, (3, 4), mu):
                degrees.append(tableau_degree(params, tab))
        assert sorted(degrees) == [0, 1, 1, 2]
        tabs = semistandard_tableaux(params, (3, 4), (7, 0))
        assert len(tabs) == 1
        assert component_word(params, tabs[0]).steps == (1, 1, 2, 2, 2, 2, 1)
        print("PASS criterion 4: tableau layer")


class TestCriterion5LevelTwoClosedForm:
    """l=2, e in {3,4,5,6}, every multicharge shift class, n <= 30: the
    general machinery reproduces d = t^(j-i) for i < j and all entries
    have nonnegative exponents.  No valid multicharge exists for e=3."""

    def test_sweep(self):
        checked = 0
        assert canonical_multicharges(2, 3) == []
        for e in (4, 5, 6):
            for kappa in canonical_multicharges(2, e):
                params = Params(2, e, kappa)
                for n in range(1, 31):
                    for block in blocks(params, n):
                        if not all(block.regular):
                            continue
                        dm = decomposition_matrix(params, block)
                        for mu in block.members:
                            for lam in block.members:
                                entry = dm.d(lam, mu)
                                want = level2_closed_form(
                                    params,
                                    level2_label(params, lam),
                                    level2_label(params, mu),
                                )
                                assert entry == want
                                assert all(
                                    k >= 0 for k in entry.terms
                                ) and all(k >= 0 for k in dm.character(lam, mu).terms)
                        checked += 1
        assert checked > 300
        print("PASS criterion 5: level-two closed form on %d blocks" % checked)


class TestCriterion6CrossOracle:
    """l in {2,3}, e in {2l..8}, every multicharge shift class, n <= 14:
    the property grid tying together paths, tableaux, both matrix routes
    and the positivity constraints."""

    def test_grid(self):
        checked = 0
        for l in (2, 3):
            for e in range(2 * l, 9):
                for kappa in canonical_multicharges(l, e):
                    params = Params(l, e, kappa)
                    g = geometry_for(params)
                    constancy = {}
                    for n in range(1, 15):
                        for block in blocks(params, n):
                            if not all(block.regular):
                                continue
                            self._check_block(params, g, block, constancy)
                            checked += 1
        assert checked > 2000
        print("PASS criterion 6: cross-oracle grid on %d blocks" % checked)

    def _check_block(self, params, g, block, constancy):
        dm = decomposition_matrix(params, block)
        # (b) the two routes agree
        assert matrices_equal(dm, kn_oracle(params, block))
        regs = block.members
        for mu in regs:
            # the closure paths of mu ending at each lam, with their
            # degrees, asked for once per pair and read by (d), (g) and (c)
            between = {lam: paths_between(params, lam, mu) for lam in block.members}
            # (d) closure cardinality 2^length
            size = sum(map(len, between.values()))
            assert size == 2 ** g.length(g.alcove_of(mu))
            for lam in block.members:
                found = between[lam]
                # (a) standard dimensions equal graded path counts
                assert dm.standard_dim(lam, mu) == graded_path_count(params, lam, mu)
                # (g) the counts equal the graded closure paths
                assert graded_path_count(params, lam, mu) == Laurent(
                    (d, 1) for _, d in found
                )
                # (c) degree-preserving bijection tableaux -> paths
                got = sorted(
                    (component_word(params, t).steps, tableau_degree(params, t))
                    for t in semistandard_tableaux(params, lam, mu)
                )
                want = sorted((p.steps, d) for p, d in found)
                assert got == want
            for lam in regs:
                entry = dm.d(lam, mu)
                # (e) positivity
                if lam != mu:
                    assert all(k >= 1 and c > 0 for k, c in entry.terms.items())
                assert is_in_plus_semiring(dm.character(lam, mu))
                # (f) alcove-constancy across block sizes
                key = (g.alcove_of(lam), g.alcove_of(mu))
                if key in constancy:
                    assert constancy[key] == entry
                else:
                    constancy[key] = entry


class TestCriterion7Stability:
    """Recomputation at n + i*l leaves the matrices unchanged."""

    def test_intro_and_rank1(self):
        intro = Params(3, 8, (0, 4, 6))
        b_intro = block_of(intro, 13, (4, 6, 3))
        rank1 = Params(2, 4, (0, 2))
        b_rank1 = block_of(rank1, 11, (0, 11))
        for i in (1, 2):
            assert stability_check(intro, b_intro, i)
            assert stability_check(rank1, b_rank1, i)
        print("PASS criterion 7: stability at n + l and n + 2l")
