"""Path words, the degree statistic, closures and alcove series."""

import itertools

import pytest

from quivertl import geometry
from quivertl.decomposition import block_of, blocks
from quivertl.geometry import geometry_for
from quivertl.laurent import Laurent, ONE
from quivertl.params import Params
from quivertl.paths import (
    ClosureBudgetExceeded,
    NotAGallery,
    NotAdmissible,
    PathWord,
    alcove_series,
    distinguished_path,
    graded_path_count,
    path_degree,
    paths_between,
    reflection_closure,
)
from quivertl.soergel import run_all

from helpers import (
    NotOnHyperplane,
    alcove_series_by_points,
    gallery_alcoves,
    gallery_along,
    is_admissible,
    reflect_tail,
)

P_INTRO = Params(3, 8, (0, 4, 6))
P_RANK1 = Params(2, 4, (0, 2))


class TestPathWord:
    def test_prefix_points(self):
        w = PathWord(3, (1, 2, 3, 1))
        assert w.points == (
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1),
        )
        assert w.endpoint() == (2, 1, 1)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PathWord(2, (1, 3))


class TestDistinguishedPath:
    def test_sorted_loading_words(self):
        assert distinguished_path(P_INTRO, (5, 6, 2)).steps == (
            1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 1, 2, 2,
        )
        assert distinguished_path(P_INTRO, (4, 9, 0)).steps == (
            1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2,
        )
        assert distinguished_path(P_RANK1, (0, 11)).steps == (2,) * 11

    def test_empty(self):
        assert distinguished_path(P_RANK1, (0, 0)).steps == ()


class TestDegrees:
    def test_distinguished_paths_have_degree_zero(self):
        for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0)]:
            assert path_degree(P_INTRO, distinguished_path(P_INTRO, mu)) == 0

    def test_reflected_path_degree_one(self):
        # the tail reflection of the (5,6,2) path at its only wall contact
        # ends at (4,6,3) with degree 1
        w = distinguished_path(P_INTRO, (5, 6, 2))
        refl = reflect_tail(P_INTRO, w, 10, (0, 2, 1))
        assert refl.steps == (1, 2, 3, 1, 2, 3, 1, 2, 1, 2, 3, 2, 2)
        assert refl.endpoint() == (4, 6, 3)
        assert path_degree(P_INTRO, refl) == 1
        # the +1 arises at the step off the wall
        assert geometry_for(P_INTRO).step_degree(refl.points[10], refl.points[11]) == 1

    def test_rank1_degree_steps(self):
        # the two paths to (4,7): degrees 2 and 0
        found = dict(
            (p.steps, d) for p, d in paths_between(P_RANK1, (4, 7), (0, 11))
        )
        assert sorted(found.values()) == [0, 2]

    def test_reflect_tail_requires_wall(self):
        w = distinguished_path(P_RANK1, (0, 11))
        with pytest.raises(NotOnHyperplane):
            reflect_tail(P_RANK1, w, 1, (0, 1, 0))


class TestClosure:
    def test_closure_sizes(self):
        g = geometry_for(P_INTRO)
        for mu in [(4, 6, 3), (5, 6, 2), (5, 8, 0), (4, 9, 0), (13, 0, 0)]:
            closure = reflection_closure(P_INTRO, distinguished_path(P_INTRO, mu))
            assert len(closure) == 2 ** g.length(g.alcove_of(mu))

    def test_closure_endpoints_stay_in_orbit(self):
        g = geometry_for(P_INTRO)
        orbit = set(g.orbit_points(g._orbit_key((4, 9, 0)), 13))
        closure = reflection_closure(P_INTRO, distinguished_path(P_INTRO, (4, 9, 0)))
        assert {p.endpoint() for p in closure} <= orbit

    def test_budget(self):
        with pytest.raises(ClosureBudgetExceeded):
            reflection_closure(
                P_INTRO, distinguished_path(P_INTRO, (4, 9, 0)), budget=4
            )

    def test_paths_between_sorted_lexicographically(self):
        found = [p.steps for p, _ in paths_between(P_INTRO, (4, 6, 3), (4, 9, 0))]
        assert found == sorted(found)
        assert len(found) == 2

    def test_paths_between_keeps_no_closure(self, monkeypatch):
        # a paths or svg process asks for one closure, so none is kept
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        found = paths_between(P_INTRO, (4, 6, 3), (4, 9, 0))
        assert sorted(d for _, d in found) == [1, 3]
        assert all(d == path_degree(P_INTRO, p) for p, d in found)
        assert "closures" not in geometry_for(P_INTRO).caches

    def test_graded_path_count(self):
        gamma = (4, 9, 0)
        assert str(graded_path_count(P_INTRO, (4, 6, 3), gamma)) == "t + t^3"
        assert str(graded_path_count(P_INTRO, (5, 6, 2), gamma)) == "1 + t^2"
        assert str(graded_path_count(P_INTRO, (5, 8, 0), gamma)) == "t"
        assert str(graded_path_count(P_INTRO, gamma, gamma)) == "1"


class TestCountsAgainstClosure:
    """graded_path_count comes from a tableau-placement count; the closure
    it replaces stays the oracle."""

    @pytest.mark.parametrize("n, longest", [(30, 7), (40, 10)])
    def test_matches_closure_on_long_galleries(self, n, longest):
        # the longest column's closure has 2^longest paths: 128 and 1024
        g = geometry_for(P_RANK1)
        block = block_of(P_RANK1, n, (n // 2, n - n // 2))
        assert max(g.length(g.alcove_of(mu)) for mu in block.members) == longest
        for mu in block.members:
            for lam in block.members:
                want = Laurent((d, 1) for _, d in paths_between(P_RANK1, lam, mu))
                assert graded_path_count(P_RANK1, lam, mu) == want

    def test_column_totals_beyond_closure_sizes(self):
        # at t = 1 a column counts its 2^length closure paths, and the
        # distinguished path is the only one that stays at mu
        columns = 0
        for params, n in [(P_RANK1, 60), (P_INTRO, 45)]:
            g = geometry_for(params)
            for block in blocks(params, n):
                if not all(block.regular):
                    continue
                for mu in block.members:
                    total = sum(
                        sum(graded_path_count(params, lam, mu).terms.values())
                        for lam in block.members
                    )
                    assert total == 2 ** g.length(g.alcove_of(mu))
                    assert graded_path_count(params, mu, mu) == ONE
                    columns += 1
        assert columns > 700


class TestAdmissibility:
    def test_distinguished_paths_admissible(self):
        for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0)]:
            assert is_admissible(P_INTRO, distinguished_path(P_INTRO, mu))

    def test_nonzero_prefix_degree_fails(self):
        w = distinguished_path(P_INTRO, (5, 6, 2))
        refl = reflect_tail(P_INTRO, w, 10, (0, 2, 1))
        assert not is_admissible(P_INTRO, refl)

    def test_series_rejects_exactly_the_non_admissible_paths(self):
        # the walk decides admissibility itself, and the reference shares
        # no code with it.  Closure paths fail on prefix degrees only; some
        # words of length 6 at l=3 e=6 fail only on meeting three walls at
        # a point.  An admissible path that leaves the gallery only at its
        # last step raises NotAGallery instead
        cases = [(P_INTRO, (4, 9, 0)), (P_INTRO, (5, 6, 2)), (P_RANK1, (0, 11))]
        paths = [
            (params, path)
            for params, mu in cases
            for path in reflection_closure(params, distinguished_path(params, mu))
        ]
        p_three = Params(3, 6, (0, 2, 4))
        paths += [
            (p_three, PathWord(3, word))
            for word in itertools.product((1, 2, 3), repeat=6)
        ]
        outcomes = set()
        for params, path in paths:
            admissible = is_admissible(params, path)
            try:
                alcove_series(params, path)
            except NotAdmissible:
                assert not admissible, path
            except NotAGallery:
                assert admissible, path
            outcomes.add(admissible)
        assert outcomes == {False, True}


class TestAlcoveSeries:
    def test_intro_series(self):
        g = geometry_for(P_INTRO)
        word = alcove_series(P_INTRO, distinguished_path(P_INTRO, (4, 9, 0)))
        alcoves = gallery_alcoves(g, word)
        assert [g.length(a) for a in alcoves] == [0, 1, 2, 3]
        assert [g.walls(a)[t] for a, t in zip(alcoves, word)] == [
            (0, 2, 1), (1, 2, 1), (0, 1, 0),
        ]

    def test_series_skipping_an_alcove(self):
        # the (10,1,2) path leaves one wall and lands on an orthogonal one
        # in a single step; the gallery still inserts the skipped alcove
        g = geometry_for(P_INTRO)
        word = alcove_series(P_INTRO, distinguished_path(P_INTRO, (10, 1, 2)))
        alcoves = gallery_alcoves(g, word)
        assert [g.length(a) for a in alcoves] == [0, 1, 2]
        assert alcoves[-1] == g.alcove_of((10, 1, 2))

    def test_zero_length(self):
        g = geometry_for(P_RANK1)
        word = alcove_series(P_RANK1, distinguished_path(P_RANK1, (5, 6)))
        assert word == ()
        gallery = gallery_along(P_RANK1, word)
        assert gallery.end == g.fundamental
        assert run_all(P_RANK1, gallery)[0] == {g.fundamental: ONE}

    def test_non_admissible_rejected(self):
        # crossing a wall and coming straight back has prefix degree 1
        word = PathWord(2, (2, 2, 1, 1))
        assert not is_admissible(P_RANK1, word)
        with pytest.raises(NotAdmissible):
            alcove_series(P_RANK1, word)

    # every word of each length up to k; at l=4 two walls through one
    # point can be orthogonal
    @pytest.mark.parametrize("params, k", [
        (Params(2, 4, (0, 2)), 10),
        (Params(3, 6, (0, 2, 4)), 7),
        (Params(3, 8, (0, 4, 6)), 7),
        (Params(4, 8, (0, 2, 4, 6)), 6),
    ])
    def test_walk_matches_the_point_by_point_walk(self, params, k):
        def outcome(series, path):
            try:
                return "gallery", series(params, path)
            except (NotAdmissible, NotAGallery) as exc:
                return type(exc), str(exc)

        letters = range(1, params.l + 1)
        kinds = set()
        for length in range(k + 1):
            for word in itertools.product(letters, repeat=length):
                path = PathWord(params.l, word)
                got = outcome(alcove_series, path)
                assert got == outcome(alcove_series_by_points, path), word
                kinds.add(got[0])
        assert kinds == {"gallery", NotAdmissible, NotAGallery}

    # each case breaks one gallery check on a fresh Geometry; the (4,9,0)
    # path first lands on (1,3,1), from the fundamental alcove, and its
    # endpoint is regular
    @pytest.mark.parametrize("attr, broken, message", [
        ("wall_type", lambda g: lambda a, h: None,
         "hyperplane (0, 2, 1) does not bound alcove (0, 0, 0)"),
        ("length", lambda g: lambda a, real=g.length: -real(a),
         "crossing (0, 2, 1) does not move away from the origin"),
        ("alcove_of", lambda g: lambda p: g.fundamental,
         "gallery does not end at the endpoint's alcove"),
    ])
    def test_broken_geometry_is_not_a_gallery(self, monkeypatch, attr, broken, message):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        g = geometry_for(P_INTRO)
        assert g.fundamental == (0, 0, 0)
        monkeypatch.setattr(g, attr, broken(g))
        with pytest.raises(NotAGallery) as info:
            alcove_series(P_INTRO, distinguished_path(P_INTRO, (4, 9, 0)))
        assert str(info.value) == message
