"""Alcove geometry: classification, reflections, galleries, orbits.

Derived quantities (separating counts, orbits) are checked against
independent brute-force oracles built from single reflections only.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quivertl.geometry import (
    Geometry,
    InternalMismatch,
    SingularPoint,
    geometry_for,
)
from quivertl.params import Params, ParamsError

from helpers import (
    AffineElement,
    apply,
    compositions,
    element_along,
    element_wall,
    gallery_alcoves,
    inverse,
    length_by_count,
    orbit_points_by_scan,
    reflect_point,
    reflection_element,
    root_value,
    separating_count,
    shifted,
    star_by_conjugation,
)


P_INTRO = Params(3, 8, (0, 4, 6))
P_RANK1 = Params(2, 4, (0, 2))
P_L4 = Params(4, 10, (0, 3, 5, 7))
P_L5 = Params(5, 10, (0, 2, 4, 6, 8))

# a point of the alcove s_{(1,2),1} s_{(3,4),1} . fundamental, of length 6,
# whose element is a product of reflections in orthogonal walls
ORTHOGONAL_PAIR = shifted(
    reflection_element(4, 10, (0, 1, 1)).compose(
        reflection_element(4, 10, (2, 3, 1))
    ),
    (0, 0, 0, 0),
    P_L4.rho,
)


class TestParams:
    def test_rho(self):
        assert P_INTRO.rho == (8, 4, 2)
        assert P_RANK1.rho == (4, 2)

    def test_kappa_normalised(self):
        assert Params(2, 4, (4, 6)).kappa == (0, 2)

    def test_rejects_bad_configs(self):
        with pytest.raises(ParamsError):
            Params(2, 3, (0, 2))  # needs 2l <= e
        with pytest.raises(ParamsError):
            Params(2, 4, (0, 1))  # adjacent residues
        with pytest.raises(ParamsError):
            Params(2, 4, (0, 0))
        with pytest.raises(ParamsError):
            Params(2, 4.5, (0, 2))
        with pytest.raises(ParamsError):
            Params(2, float("inf"), (0, 2))


class TestClassify:
    def test_regular_point(self):
        assert geometry_for(P_INTRO).classify((4, 6, 3)) == []

    def test_singular_point(self):
        # (4+8) - (2+2) = 8, one wall between components 1 and 3
        g = geometry_for(P_INTRO)
        assert g.classify((4, 7, 2)) == [(0, 2, 1)]
        # it is the very triple that bounds the alcove of (5, 6, 2) and the
        # fundamental alcove, of type 1 in both, and crossing it
        # leads from one to the other
        h = (0, 2, 1)
        a = g.alcove_of((5, 6, 2))
        assert a == (0, 1, 0)
        assert g.walls(a)[1] == h
        assert g.walls(g.fundamental)[1] == h
        assert g.wall_type(a, h) == g.wall_type(g.fundamental, h) == 1
        assert g.star(a, 1) == g.fundamental

    def test_reflect_point(self):
        g = geometry_for(P_INTRO)
        assert reflect_point(g, (0, 2, 1), (5, 6, 2)) == (4, 6, 3)
        # reflection is an involution fixing the wall
        assert reflect_point(g, (0, 2, 1), (4, 6, 3)) == (5, 6, 2)
        assert reflect_point(g, (0, 2, 1), (4, 7, 2)) == (4, 7, 2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_root_values_match_the_rho_reference(self, data):
        # every point-wise reader of root values against values read off
        # rho; p may be singular, and its coordinates negative
        l = data.draw(st.integers(1, 5))
        e = data.draw(st.integers(2 * l, 12))
        residues = data.draw(st.sampled_from(VALID_RESIDUES[l, e]))
        g = Geometry(Params(l, e, tuple(data.draw(st.permutations(residues)))))
        p = data.draw(st.tuples(*[st.integers(-2 * e, 3 * e)] * l))
        values = [root_value(g.rho, p, i, j) for i, j in g.roots]
        assert g.values(p) == values
        try:
            alcove = g.alcove_of(p)
        except SingularPoint:
            alcove = None
        assert (g.classify(p) == []) == (alcove is not None)
        if alcove is not None:
            assert g.point_length(p) == g.length(alcove)
        # on any p: the multiples of e strictly between p's and the origin's
        assert g.point_length(p) == length_by_count(g, p)
        for c in range(l):
            q = p[:c] + (p[c] + 1,) + p[c + 1:]
            after = [root_value(g.rho, q, i, j) for i, j in g.roots]
            assert g.step_degree(p, q) == sum(
                map(g.root_step_degree, range(len(values)), values, after)
            )


class TestAffineElement:
    @given(st.permutations(range(3)), st.tuples(*[st.integers(-5, 5)] * 3),
           st.permutations(range(3)), st.tuples(*[st.integers(-5, 5)] * 3),
           st.tuples(*[st.integers(-9, 9)] * 3))
    def test_compose_and_inverse(self, p1, t1, p2, t2, x):
        u = AffineElement(tuple(p1), t1)
        v = AffineElement(tuple(p2), t2)
        assert apply(u.compose(v), x) == apply(u, apply(v, x))
        assert apply(inverse(u), apply(u, x)) == x
        ident = AffineElement.identity(3)
        assert apply(ident, x) == x

    def test_reflection_matches_reflect_point(self):
        g = geometry_for(P_INTRO)
        h = (0, 2, 1)
        s = reflection_element(3, 8, h)
        for p in [(5, 6, 2), (0, 0, 0), (4, 9, 0)]:
            assert shifted(s, p, g.rho) == reflect_point(g, h, p)


class TestAlcoves:
    def test_floors_and_length(self):
        g = geometry_for(P_INTRO)
        assert g.alcove_of((4, 6, 3)) == g.fundamental
        assert g.length(g.alcove_of((4, 6, 3))) == 0
        assert g.length(g.alcove_of((5, 6, 2))) == 1
        assert g.length(g.alcove_of((4, 9, 0))) == 3

    def test_rank1_alcoves(self):
        g = geometry_for(P_RANK1)
        assert g.alcove_of((5, 6)) == g.fundamental
        assert g.alcove_of((4, 7)) == (-1,)
        assert g.alcove_of((0, 11)) == (-3,)

    def test_singular_has_no_alcove(self):
        with pytest.raises(SingularPoint):
            geometry_for(P_INTRO).alcove_of((4, 7, 2))

    def test_elem_carries_fundamental_onto_alcove(self):
        g = geometry_for(P_INTRO)
        for p in [(5, 6, 2), (4, 9, 0), (13, 0, 0), (2, 0, 11)]:
            key = g.alcove_of(p)
            elem = element_along(g, g.minimal_gallery(key))
            image = shifted(elem, (0, 0, 0), g.rho)
            # the origin's image lies in the same alcove (it may be singular
            # only if the origin were, which it is not)
            assert g.alcove_of(image) == key


# targets of galleries at l = 3, 4 and 5, an orthogonal pair among them
GALLERY_TARGETS = [
    (P_INTRO, (4, 6, 3)), (P_INTRO, (5, 6, 2)), (P_INTRO, (4, 9, 0)),
    (P_INTRO, (13, 0, 0)), (P_INTRO, (2, 0, 11)),
    (P_L4, (0, 0, 8, 8)), (P_L4, (0, 7, 3, 6)), (P_L4, (0, 0, 0, 16)),
    (P_L4, (3, 0, 0, 27)), (P_L4, ORTHOGONAL_PAIR),
    (P_L5, (0, 3, 0, 3, 7)), (P_L5, (0, 3, 1, 5, 4)),
    (P_L5, (0, 0, 0, 0, 13)), (P_L5, (0, 5, 0, 0, 19)),
]


class TestGalleries:
    def test_minimal_gallery_shape(self):
        assert geometry_for(P_L4).point_length(ORTHOGONAL_PAIR) == 6
        for params, p in GALLERY_TARGETS:
            g = geometry_for(params)
            target = g.alcove_of(p)
            word = g.minimal_gallery(target)
            assert len(word) == g.length(target)
            cur = g.fundamental
            for idx, t in enumerate(word):
                assert g.length(cur) == idx
                cur = g.star(cur, t)
            assert cur == target

    def test_star_is_involution_on_pairs(self):
        g = geometry_for(P_RANK1)
        target = g.alcove_of((0, 11))
        word = g.minimal_gallery(target)
        support = [g.alcove_of(p) for p in [(5, 6), (4, 7), (8, 3), (0, 11)]]
        for t in word:
            for b in support:
                image = g.star(b, t)
                assert g.star(image, t) == b
                assert abs(g.length(image) - g.length(b)) == 1

    def test_star_matches_conjugation(self):
        # star(b, t) is v s_t . fundamental; the reference conjugates the
        # reflection in the wall of type t of a gallery alcove a back to
        # the fundamental alcove
        for params, p in GALLERY_TARGETS:
            g = geometry_for(params)
            alcoves = gallery_alcoves(g, g.minimal_gallery(g.alcove_of(p)))
            for a in alcoves:
                w = element_along(g, g.minimal_gallery(a))
                for t in range(len(g._walls)):
                    h = element_wall(g, w, t)
                    for b in alcoves:
                        assert g.star(b, t) == star_by_conjugation(g, b, a, h)

    def test_wall_type_inverts_wall(self):
        for params, p in GALLERY_TARGETS:
            g = geometry_for(params)
            assert len(g._walls) == params.l
            for a in gallery_alcoves(g, g.minimal_gallery(g.alcove_of(p))):
                w = element_along(g, g.minimal_gallery(a))
                for t in range(len(g._walls)):
                    assert g.wall_type(a, element_wall(g, w, t)) == t

    def test_wall_type_of_non_bounding_wall(self):
        g = geometry_for(P_RANK1)
        # the wall at level 2 does not bound the fundamental alcove
        assert g.wall_type(g.fundamental, (0, 1, 2)) is None

    # the parameter sets of the step-degree test, l = 1 to 6
    @pytest.mark.parametrize("params", [
        Params(1, 2, (0,)),
        Params(2, 7, (3, 5)),
        Params(3, 6, (4, 0, 2)),
        Params(4, 10, (7, 0, 4, 2)),
        Params(5, 11, (0, 2, 4, 6, 8)),
        Params(6, 12, (0, 2, 4, 6, 8, 10)),
    ])
    def test_carried_walls_match_reference(self, params):
        # every alcove within 4 crossings of the fundamental one, found
        # breadth-first by star: its walls, computed from its floors, are
        # the images of the fundamental walls under the element of a
        # minimal gallery to it, and under the element of every gallery of
        # the search reaching it
        g = Geometry(params)
        types = range(len(g._walls))

        def computed(a):
            return list(g.walls(a))

        def images(word):
            w = element_along(g, word)
            return [element_wall(g, w, t) for t in types]

        words = {g.fundamental: ()}
        layer = [g.fundamental]
        for _ in range(4):
            found = []
            for b in layer:
                for t in types:
                    a = g.star(b, t)
                    assert computed(a) == images(words[b] + (t,))
                    if a not in words:
                        words[a] = words[b] + (t,)
                        found.append(a)
            layer = found
        for a in words:
            assert computed(a) == images(g.minimal_gallery(a))

    @pytest.mark.parametrize("params", [
        Params(2, 5, (3, 0)),
        Params(3, 8, (0, 4, 6)),
        Params(3, 9, (5, 1, 7)),
        Params(4, 12, (6, 3, 0, 8)),
        Params(5, 11, (4, 0, 8, 2, 6)),
    ])
    def test_walls_properties(self, params):
        # reference-free: on every alcove within 6 crossings of the
        # fundamental one, found breadth-first, crossing a wall of type t
        # is an involution that keeps the wall, moves the length by 1, and
        # every wall bounds its alcove with its type as its index
        g = Geometry(params)
        seen = {g.fundamental}
        layer = [g.fundamental]
        for _ in range(6):
            found = []
            for b in layer:
                walls = g.walls(b)
                assert len(walls) == params.l
                for t, (i, j, m) in enumerate(walls):
                    r = g.roots.index((i, j))
                    assert m in (b[r], b[r] + 1)
                    assert g.wall_type(b, walls[t]) == t
                    a = g.star(b, t)
                    assert abs(g.length(a) - g.length(b)) == 1
                    assert g.star(a, t) == b
                    assert g.walls(a)[t] == walls[t]
                    if a not in seen:
                        seen.add(a)
                        found.append(a)
            layer = found

    def test_minimal_gallery_without_a_separating_wall(self):
        g = Geometry(P_INTRO)
        target = g.alcove_of((4, 9, 0))
        g._walls = []
        with pytest.raises(InternalMismatch) as info:
            g.minimal_gallery(target)
        assert str(info.value) == "no wall separates alcove %r from %r" % (
            g.fundamental, target,
        )

    def test_separating_count_against_reflection_oracle(self):
        # oracle: breadth-first search through single wall crossings
        for params, pts in [
            (P_RANK1, [(5, 6), (4, 7), (8, 3), (1, 10), (9, 2), (0, 11)]),
            (P_L4, [(0, 0, 8, 8), (0, 7, 3, 6), (1, 5, 3, 7), (0, 0, 6, 10),
                    (0, 1, 6, 9)]),
        ]:
            g = geometry_for(params)
            keys = [g.alcove_of(p) for p in pts]
            for a in keys:
                dist = _bfs_distances(g, a, keys)
                for b in keys:
                    assert separating_count(a, b) == dist[b]


def _bfs_distances(geom, start, interesting):
    """Walk the adjacency graph of alcoves by crossing one bounding wall
    at a time; distances are numbers of wall crossings."""
    from collections import deque

    want = set(interesting)
    dist = {start: 0}
    queue = deque([start])
    while queue and not want <= set(dist):
        cur = queue.popleft()
        for t in range(len(geom._walls)):
            nxt = geom.star(cur, t)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


class TestOrbits:
    def test_orbit_contains_reflection_closure(self):
        # oracle: close the point set under single reflections, staying
        # inside the nonnegative region through bounded detours
        g = geometry_for(P_INTRO)
        orbit = set(g.orbit_points(g._orbit_key((4, 6, 3)), 13))
        closure = _reflection_orbit_oracle(g, (4, 6, 3), 13)
        assert orbit == closure

    def test_orbit_rank1(self):
        g = geometry_for(P_RANK1)
        assert set(g.orbit_points(g._orbit_key((0, 11)), 11)) == {
            (5, 6), (4, 7), (8, 3), (1, 10), (9, 2), (0, 11),
        }

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_orbit_matches_the_composition_scan(self, data):
        # p need not sum to n: only its residues matter
        l = data.draw(st.integers(1, 5))
        e = data.draw(st.integers(2 * l, 12))
        residues = data.draw(st.sampled_from(VALID_RESIDUES[l, e]))
        kappa = data.draw(st.permutations(residues))
        g = Geometry(Params(l, e, tuple(kappa)))
        p = data.draw(st.tuples(*[st.integers(0, 2 * e)] * l))
        n = data.draw(st.integers(0, 24))
        assert g.orbit_points(g._orbit_key(p), n) == orbit_points_by_scan(g, p, n)

    def test_orbit_with_more_components_than_boxes(self):
        g = Geometry(Params(7, 14, tuple(range(0, 14, 2))))
        p = (5, 0, 0, 0, 0, 0, 0)
        assert g.orbit_points(g._orbit_key(p), 5) == orbit_points_by_scan(g, p, 5) == [
            (2, 0, 0, 0, 0, 0, 3),
            (2, 0, 0, 0, 0, 1, 2),
            (4, 0, 0, 0, 0, 1, 0),
            (5, 0, 0, 0, 0, 0, 0),
        ]

    def test_compositions_count(self):
        assert len(list(compositions(5, 2))) == 6
        assert len(list(compositions(4, 3))) == 15


def _valid_residue_sets(l, e):
    """The residue sets of the valid multicharges of (l, e): l residues
    mod e, no two equal or adjacent (cyclically)."""
    return [
        rs
        for rs in combinations(range(e), l)
        if all((b - a) % e not in (1, e - 1) for a, b in combinations(rs, 2))
    ]


# the residue sets of (l, e) for l = 1..5 and 2l <= e <= 12: every valid
# multicharge is a permutation of one of them
VALID_RESIDUES = {
    (l, e): _valid_residue_sets(l, e) for l in range(1, 6) for e in range(2 * l, 13)
}


def _reflection_orbit_oracle(geom, p, n):
    """All points with nonnegative coordinates reachable from p by single
    reflections, allowing intermediate points with slightly negative
    coordinates so pruning cannot disconnect the orbit."""
    seen = {p}
    work = [p]
    slack = 2 * geom.e
    while work:
        cur = work.pop()
        for (i, j) in geom.roots:
            for m in range(-4, 5):
                q = reflect_point(geom, (i, j, m), cur)
                if q != cur and q not in seen and all(c >= -slack for c in q):
                    seen.add(q)
                    work.append(q)
    return {q for q in seen if all(c >= 0 for c in q)}
