"""Loadings, residues, dominance, semistandard tableaux and degrees."""

import itertools

import pytest

from quivertl import geometry
from quivertl.geometry import geometry_for
from quivertl.laurent import Laurent, ZERO
from quivertl.params import Params, ParamsError
from quivertl.paths import (
    NotAdmissible,
    NotAGallery,
    alcove_series,
    distinguished_path,
    paths_between,
)
from quivertl.tableaux import (
    _moves,
    graded_tableau_counts,
    loading,
    node_residue,
    place_nodes,
)

from helpers import (
    addable_removable,
    component_word,
    compositions,
    dominance_leq,
    node_loading,
    placement_degree,
    residue_multiset,
    semistandard_tableaux,
    tableau_degree,
)

P7 = Params(2, 4, (0, 2))


class TestLoading:
    def test_block_loadings(self):
        def xs(lam):
            return [x for x, _, _ in loading(P7, lam)]

        assert xs((7, 0)) == [0, 2, 4, 6, 8, 10, 12]
        assert xs((6, 1)) == [0, 1, 2, 4, 6, 8, 10]
        assert xs((3, 4)) == [0, 1, 2, 3, 4, 5, 7]
        assert xs((2, 5)) == [0, 1, 2, 3, 5, 7, 9]

    def test_loading_is_the_sorted_node_list(self):
        for params in (P7, Params(3, 8, (0, 4, 6)), Params(4, 10, (0, 3, 5, 7))):
            for lam in compositions(9, params.l):
                want = sorted(
                    (node_loading(params, r, m), node_residue(params, r, m), m)
                    for m in range(1, params.l + 1)
                    for r in range(1, lam[m - 1] + 1)
                )
                assert loading(params, lam) == want, (params, lam)

    def test_residues(self):
        # component 1 cycles 0,3,2,1,...; component 2 cycles 2,1,0,3,...
        assert residue_multiset(P7, (7, 0)) == residue_multiset(P7, (3, 4))
        assert residue_multiset(P7, (7, 0)) != residue_multiset(P7, (5, 2))

    def test_addable_removable(self):
        # empty shape: the addable residue of component m is kappa_m
        assert addable_removable(P7, (0, 0), 0) == ([1], [])
        assert addable_removable(P7, (0, 0), 2) == ([2], [])
        # one box in component 1: removable residue kappa_1 + 1 - 1 = 0
        assert addable_removable(P7, (1, 0), 0) == ([], [1])


class TestDominance:
    def test_block_chain(self):
        chain = [(3, 4), (6, 1), (2, 5), (7, 0)]
        # (3,4) is the most dominant member, (7,0) the least
        for low in [(6, 1), (2, 5), (7, 0)]:
            assert dominance_leq(P7, low, (3, 4))
            assert not dominance_leq(P7, (3, 4), low)

    def test_reflexive(self):
        for lam in [(3, 4), (7, 0)]:
            assert dominance_leq(P7, lam, lam)

    def test_paths_only_to_dominant(self):
        # nonzero path count forces dominance of the target weight's source
        for mu in [(7, 0), (6, 1), (2, 5)]:
            for lam in [(7, 0), (6, 1), (3, 4), (2, 5)]:
                if paths_between(P7, lam, mu):
                    assert dominance_leq(P7, mu, lam)


class TestSemistandard:
    def test_shape_equals_weight_is_unique(self):
        for lam in [(7, 0), (6, 1), (3, 4), (2, 5)]:
            tabs = semistandard_tableaux(P7, lam, lam)
            assert len(tabs) == 1
            assert tableau_degree(P7, tabs[0]) == 0

    def test_block_degrees(self):
        degrees = []
        for mu in [(7, 0), (6, 1), (3, 4), (2, 5)]:
            for tab in semistandard_tableaux(P7, (3, 4), mu):
                degrees.append(tableau_degree(P7, tab))
        assert sorted(degrees) == [0, 1, 1, 2]

    def test_displayed_tableau(self):
        tabs = semistandard_tableaux(P7, (3, 4), (7, 0))
        assert len(tabs) == 1
        assert tabs[0].columns == ((0, 2, 12), (4, 6, 8, 10))
        assert component_word(P7, tabs[0]).steps == (1, 1, 2, 2, 2, 2, 1)
        assert tableau_degree(P7, tabs[0]) == 2

    def test_no_tableaux_to_less_dominant_shapes(self):
        assert semistandard_tableaux(P7, (7, 0), (3, 4)) == []


class TestBijectionWithPaths:
    def test_degree_preserving_bijection(self):
        params = Params(3, 8, (0, 4, 6))
        g = geometry_for(params)
        members = g.orbit_points(g._orbit_key((4, 6, 3)), 13)
        for mu in members:
            for lam in members:
                tabs = semistandard_tableaux(params, lam, mu)
                found = paths_between(params, lam, mu)
                got = sorted(
                    (component_word(params, t).steps, tableau_degree(params, t))
                    for t in tabs
                )
                want = sorted((p.steps, d) for p, d in found)
                assert got == want


class TestStepDegree:
    # (params, side): every point of the box [0, side)^l and every letter
    @pytest.mark.parametrize("params, side", [
        (Params(1, 2, (0,)), 24),
        (Params(2, 7, (3, 5)), 30),
        (Params(3, 6, (4, 0, 2)), 14),
        (Params(4, 10, (7, 0, 4, 2)), 8),
        (Params(5, 11, (0, 2, 4, 6, 8)), 5),
        (Params(6, 12, (0, 2, 4, 6, 8, 10)), 4),
    ])
    def test_step_degree_is_placement_degree(self, params, side):
        # the path-side step degree, from wall contacts, equals the
        # tableau-side one, addable minus removable nodes, on all moves and
        # not only on those the DP stores; so do the DP's own moves
        # (``tableaux._moves``) of every residue, which reach heights on
        # both sides of every wall
        g = geometry_for(params)
        seen = set()
        for p in itertools.product(range(side), repeat=params.l):
            want = {}
            for m in range(1, params.l + 1):
                q = p[: m - 1] + (p[m - 1] + 1,) + p[m:]
                d = g.step_degree(p, q)
                assert d == placement_degree(params, q, m), (params, p, m)
                seen.add(d)
                want.setdefault(node_residue(params, q[m - 1], m), []).append((q, d))
            for res in range(params.e):
                moves = _moves(g, params, p, res)
                assert moves == tuple(want.get(res, ())), (params, p, res)
        if params.l > 1:
            assert {-1, 0, 1} <= seen


class TestGradedCounts:
    PARAMS = [
        (Params(2, 4, (0, 2)), 14),
        (Params(3, 8, (0, 4, 6)), 12),
        (Params(4, 8, (0, 2, 4, 6)), 9),
        (Params(4, 10, (0, 3, 5, 8)), 9),
    ]

    def test_matches_enumerated_tableaux(self):
        for params, n in self.PARAMS:
            by_residues = {}
            for q in compositions(n, params.l):
                key = tuple(sorted(residue_multiset(params, q).items()))
                by_residues.setdefault(key, []).append(q)
            for members in by_residues.values():
                for mu in members:
                    counts = graded_tableau_counts(params, mu)
                    assert set(counts) <= set(members)
                    for lam in members:
                        want = Laurent(
                            (tableau_degree(params, t), 1)
                            for t in semistandard_tableaux(params, lam, mu)
                        )
                        assert counts.get(lam, ZERO) == want

    def test_counts_have_positive_coefficients(self):
        # ``place_nodes`` takes its DP dicts over unchecked
        # (``laurent.canonical``), which needs every coefficient nonzero:
        # each count is a sum of powers of t, one per tableau
        for params, n in self.PARAMS:
            for mu in compositions(n, params.l):
                for lam, poly in graded_tableau_counts(params, mu).items():
                    assert poly.terms and min(poly.terms.values()) > 0, (mu, lam)
                    assert poly == Laurent(poly.terms)

    def test_no_residue_takes_no_dict_over(self, monkeypatch):
        # with nothing to place, the states are still the caller's dicts:
        # the stored counts must be equal to them but not be them, or a
        # later change by the caller would change a shared value
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        states = {(0, 0): {0: 1}, (1, 0): {2: 1, 5: 3}}
        counts = place_nodes(P7, states, [])
        for heights, terms in states.items():
            assert counts[heights].terms == terms
            assert counts[heights].terms is not terms

    def test_stored_values_are_read_never_changed(self, monkeypatch):
        # a class record continues the DP from a stored table: its values
        # are shared by every table of the Geometry, so the DP must copy
        # one before it merges into it.  Every split of every loading is
        # continued from the stored table of its prefix
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        for params, n in self.PARAMS:
            for mu in compositions(n, params.l):
                nodes = loading(params, mu)
                for j in range(len(nodes)):
                    nu = [0] * params.l
                    for _, _, m in nodes[:j]:
                        nu[m - 1] += 1
                    stored = graded_tableau_counts(params, tuple(nu))
                    before = {lam: dict(poly.terms) for lam, poly in stored.items()}
                    rest = [res for _, res, _ in nodes[j:]]
                    counts = place_nodes(params, stored, rest)
                    assert counts == graded_tableau_counts(params, mu), (params, mu, j)
                    assert {lam: poly.terms for lam, poly in stored.items()} == before

    def test_column_rules_follow_from_residues(self):
        # the counts keep no column state: an entry of the next residue of
        # a component never comes less than l after its predecessor there,
        # and an entry of residue kappa_m is never below the offset m - 1
        for params, _ in self.PARAMS:
            l, e = params.l, params.e
            nodes = [
                (node_loading(params, r, c), node_residue(params, r, c))
                for c in range(1, l + 1)
                for r in range(1, e + 2)
            ]
            for v, res_v in nodes:
                for x, res_x in nodes:
                    if v < x < v + l:
                        assert res_x != (res_v - 1) % e
            for m in range(1, l + 1):
                for x, res_x in nodes:
                    if x < m - 1:
                        assert res_x != node_residue(params, 1, m)

    def test_shared_transitions_match_a_cold_table(self, monkeypatch):
        # every weight of one (l, e, kappa) reads the same transitions
        # table; counts from the warm table must equal counts from a fresh
        # Geometry, and every stored degree must be placement_degree's,
        # also for the unsorted multicharge (5, 0, 2)
        cases = [(params, [n]) for params, n in self.PARAMS] + [
            (Params(3, 9, (5, 0, 2)), range(13)),
            (Params(5, 11, (0, 2, 4, 6, 8)), range(10)),
        ]
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        for params, ns in cases:
            weights = [mu for n in ns for mu in compositions(n, params.l)]
            warm = [graded_tableau_counts(params, mu) for mu in weights]
            table = geometry_for(params).caches["transitions"]
            for mu, counts in zip(weights, warm):
                with monkeypatch.context() as m:
                    m.setattr(geometry, "_GEOMETRIES", {})
                    assert graded_tableau_counts(params, mu) == counts, (params, mu)
            # one table per residue, from heights to the moves
            assert len(table) == params.e
            for res, moves_of in enumerate(table):
                for heights, moves in moves_of.items():
                    want = []
                    for c in range(1, params.l + 1):
                        if node_residue(params, heights[c - 1] + 1, c) == res:
                            hs = list(heights)
                            hs[c - 1] += 1
                            hs = tuple(hs)
                            want.append((hs, placement_degree(params, hs, c)))
                    assert moves == tuple(want), (params, heights, res)


class TestTranslationLemma:
    """mu and mu0 = mu - min(mu) * (1, ..., 1) have the same counts up to the
    shift of the shapes, and the same gallery (``tableaux`` docstring)."""

    # the largest n tried at each l
    MAX_N = {2: 16, 3: 12, 4: 10, 5: 9}

    @staticmethod
    def multicharges(l, e):
        """Up to three valid multicharges with kappa_1 = 0: the first, the
        middle and the last in lexicographic order."""
        valid = []
        for rest in itertools.product(range(e), repeat=l - 1):
            try:
                valid.append(Params(l, e, (0,) + rest))
            except ParamsError:
                pass
        return sorted({valid[0], valid[len(valid) // 2], valid[-1]}, key=str)

    @staticmethod
    def gallery(params, mu):
        try:
            return alcove_series(params, distinguished_path(params, mu))
        except (NotAdmissible, NotAGallery) as exc:
            return type(exc)

    def test_translates_share_counts_and_gallery(self, monkeypatch):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        checked = 0
        for l, max_n in self.MAX_N.items():
            for e in range(2 * l, 2 * l + 3):
                for params in self.multicharges(l, e):
                    caches = geometry_for(params).caches
                    by_class = {}
                    for n in range(l, max_n + 1):
                        for mu in compositions(n, l):
                            if min(mu) >= 1:
                                base = tuple(x - min(mu) for x in mu)
                                by_class.setdefault(base, []).append(mu)
                    for base, translates in by_class.items():
                        caches.pop("transitions", None)
                        cold = graded_tableau_counts(params, base)
                        word = self.gallery(params, base)
                        for mu in translates:
                            k = min(mu)
                            shifted = {
                                tuple(x + k for x in lam): poly
                                for lam, poly in cold.items()
                            }
                            assert graded_tableau_counts(params, mu) == shifted, (params, mu)
                            assert self.gallery(params, mu) == word, (params, mu)
                            checked += 1
        assert checked == 5504
