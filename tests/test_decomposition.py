"""Blocks, decomposition matrices, the path-counting oracle, stability
and the level-two closed forms."""

import gc
import json
import random
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivertl import decomposition, geometry, paths, soergel
from quivertl.geometry import InternalMismatch, geometry_for
from quivertl.laurent import Laurent, ONE, ZERO, value_table
from quivertl.params import Params, ParamsError
from quivertl.paths import (
    Gallery,
    NotAdmissible,
    NotAGallery,
    alcove_series,
    distinguished_path,
)
from quivertl.tableaux import graded_tableau_counts, loading, translation_class
from quivertl.decomposition import (
    NoRegularMember,
    NotLevelTwo,
    block_of,
    blocks,
    decomposition_matrix,
    kn_oracle,
    level2_closed_form,
    level2_label,
    matrices_equal,
)

from helpers import (
    add,
    blocks_by_scan,
    compositions,
    dense_decomposition_matrix,
    dense_kn_oracle,
    gallery_along,
    is_in_plus_semiring,
    level2_hom_dim,
    mul,
    residue_multiset,
    stability_check,
    trie_nodes,
)

P_INTRO = Params(3, 8, (0, 4, 6))
P_RANK1 = Params(2, 4, (0, 2))


def _block_grid():
    """(params, n) for every valid kappa order at l = 1..4 and small e,
    singular blocks and n < l included, with n = 0..10; then INTRO and
    RANK1 at larger n, e much larger than n, and l = 5 to 7 at small n."""
    for l, es in [(1, (2, 3)), (2, (4, 5)), (3, (6, 7)), (4, (8,))]:
        for e in es:
            for kappa in permutations(range(e), l):
                try:
                    params = Params(l, e, kappa)
                except ParamsError:
                    continue
                for n in range(11):
                    yield params, n
    for params, ns in [
        (P_INTRO, range(14)),
        (P_RANK1, range(11, 21)),
        (Params(3, 40, (0, 13, 27)), range(4)),
        (Params(2, 1000, (0, 500)), range(4)),
        (Params(5, 10, (0, 2, 4, 6, 8)), range(13)),
        (Params(5, 11, (0, 3, 5, 7, 9)), range(11)),
        (Params(6, 12, (0, 2, 4, 6, 8, 10)), range(11)),
        (Params(6, 13, (0, 2, 5, 7, 9, 11)), range(9)),
        (Params(7, 14, tuple(range(0, 14, 2))), range(6)),
    ]:
        for n in ns:
            yield params, n


class TestBlocks:
    def test_partition_of_all_columns(self):
        found = blocks(P_RANK1, 11)
        members = [m for b in found for m in b.members]
        assert sorted(members) == [(i, 11 - i) for i in range(12)]

    def test_residue_multisets_constant_on_blocks(self):
        for b in blocks(P_INTRO, 13):
            sets = {
                tuple(sorted(residue_multiset(P_INTRO, m).items()))
                for m in b.members
            }
            assert len(sets) == 1

    def test_regularity_constant_on_blocks(self):
        # blocks builds one orbit per residue multiset and reads regularity
        # off it; blocks_by_scan groups every composition and flags each
        # member by classify, so equality pins the blocks, member order,
        # flags and lengths, singular blocks included
        seen = set()
        for params, n in _block_grid():
            found = blocks(params, n)
            assert found == blocks_by_scan(params, n), (params, n)
            for b in found:
                assert len(set(b.regular)) == 1
                seen.add(b.regular[0])
        assert seen == {False, True}

    def test_lengths_are_point_lengths(self):
        # every length is the member's ``point_length``, regular blocks
        # and singular ones alike, and the members are ordered by
        # (point_length, member), in ``blocks`` and in ``block_of``
        seen = set()
        for params, n in _block_grid():
            g = geometry_for(params)
            for b in blocks(params, n):
                lengths = tuple(g.point_length(q) for q in b.members)
                assert b.lengths == lengths, (params, n, b.members)
                assert list(b.members) == sorted(
                    b.members, key=lambda q: (g.point_length(q), q)
                ), (params, n)
                assert block_of(params, n, b.members[-1]) == b
                seen.add(b.regular[0])
        assert seen == {False, True}

    def test_blocks_leave_no_cyclic_garbage(self):
        # building a block makes no reference cycle: with the collector
        # off, a collection after every block of the grid, each built again
        # by ``block_of``, finds nothing to free
        grid = list(_block_grid())
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for params, n in grid:
                for b in blocks(params, n):
                    block_of(params, n, b.members[-1])
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert found == 0

    def test_member_order(self):
        g = geometry_for(P_INTRO)
        b = block_of(P_INTRO, 13, (4, 6, 3))
        lengths = [g.point_length(m) for m in b.members]
        assert lengths == sorted(lengths)
        assert b.members[0] == (4, 6, 3)

    def test_intro_block_membership(self):
        b = block_of(P_INTRO, 13, (4, 6, 3))
        for m in [(5, 6, 2), (5, 8, 0), (4, 9, 0), (13, 0, 0)]:
            assert m in b.members

    def test_block_of_matches_blocks(self):
        # block_of builds only the orbit of its member
        for params, ns in [
            (P_RANK1, range(21)),
            (P_INTRO, range(14)),
            (Params(4, 8, (0, 2, 4, 6)), range(11)),
        ]:
            for n in ns:
                for b in blocks(params, n):
                    for m in b.members:
                        assert block_of(params, n, m) == b, (params, n, m)
        for member in [(4, 6), (4, 6, 3, 0), (4, 6, 2), (-1, 8, 6)]:
            with pytest.raises(ValueError):
                block_of(P_INTRO, 13, member)


class TestDecompositionMatrix:
    def test_intro_values(self):
        b = block_of(P_INTRO, 13, (4, 6, 3))
        dm = decomposition_matrix(P_INTRO, b)
        alpha, beta, gamma = (4, 6, 3), (5, 6, 2), (4, 9, 0)
        assert dm.d(alpha, beta) == Laurent.term(1)
        assert dm.d(beta, gamma) == Laurent.term(2)
        assert dm.d(alpha, gamma) == Laurent.term(3)
        assert str(dm.standard_dim(alpha, gamma)) == "t + t^3"
        assert str(dm.standard_dim(beta, gamma)) == "1 + t^2"
        assert dm.character(beta, gamma) == ONE

    def test_diagonal_and_triangularity(self):
        b = block_of(P_INTRO, 13, (4, 6, 3))
        dm = decomposition_matrix(P_INTRO, b)
        g = geometry_for(P_INTRO)
        for mu in b.members:
            assert dm.d(mu, mu) == ONE
            for lam in b.members:
                poly = dm.d(lam, mu)
                if lam != mu and poly:
                    # strictly positive exponents, nonnegative coefficients
                    assert all(k >= 1 and c > 0 for k, c in poly.terms.items())
                    assert g.length(g.alcove_of(lam)) < g.length(g.alcove_of(mu))
                assert is_in_plus_semiring(dm.character(lam, mu))

    def test_oracle_agreement(self):
        for params, n, seed in [
            (P_INTRO, 13, (4, 6, 3)),
            (P_RANK1, 11, (0, 11)),
            (Params(3, 6, (0, 2, 4)), 9, (0, 0, 9)),
        ]:
            b = block_of(params, n, seed)
            assert matrices_equal(
                decomposition_matrix(params, b), kn_oracle(params, b)
            )

    def test_oracle_agreement_at_higher_level(self):
        # l >= 4 has alcoves whose element is a product of reflections in
        # orthogonal walls; every block with a regular member must still
        # decompose and cross-check.  The later cases reach l = 6, an
        # unsorted multicharge and long l = 2 galleries at n = 60
        cases = [(Params(4, 8, (0, 2, 4, 6)), n) for n in range(11, 15)]
        cases.append((Params(5, 10, (0, 2, 4, 6, 8)), 12))
        cases.append((Params(6, 12, (0, 2, 4, 6, 8, 10)), 12))
        cases.append((Params(5, 11, (0, 2, 4, 6, 8)), 13))
        cases.append((Params(4, 9, (0, 2, 4, 6)), 17))
        cases += [(Params(3, 9, (5, 0, 2)), n) for n in (24, 25)]
        cases += [(Params(2, 9, (0, 4)), n) for n in range(58, 61)]
        checked = 0
        for params, n in cases:
            for block in blocks(params, n):
                if not any(block.regular):
                    continue
                assert matrices_equal(
                    decomposition_matrix(params, block), kn_oracle(params, block)
                ), (params, block.members)
                checked += 1
        assert checked == 223

    def test_oracle_agreement_on_long_galleries(self):
        # every block whose longest regular member lies 5 to 8 walls from
        # the fundamental alcove: galleries longer than the n <= 14 grid of
        # the acceptance suite reaches at l = 2
        cases = [
            (Params(2, 4, (0, 2)), range(10, 28)),
            (Params(2, 5, (0, 2)), range(12, 32)),
            (Params(3, 6, (0, 2, 4)), range(15, 24)),
        ]
        checked = 0
        for params, ns in cases:
            g = geometry_for(params)
            for n in ns:
                for block in blocks(params, n):
                    if not any(block.regular) or not 5 <= max(
                        g.length(g.alcove_of(m)) for m in block.members
                    ) <= 8:
                        continue
                    assert matrices_equal(
                        decomposition_matrix(params, block), kn_oracle(params, block)
                    ), (params, block.members)
                    checked += 1
        assert checked == 60

    def test_memos_do_not_change_outputs(self):
        # blocks at n and n + l share alcoves and galleries, so the run,
        # n-function and class-record memos serve one block from
        # another's entries; both routes must give the same report whatever
        # the order
        cases = [
            (Params(2, 4, (0, 2)), range(20, 28)),
            (Params(3, 6, (0, 2, 4)), range(18, 21)),
            (Params(4, 8, (0, 2, 4, 6)), range(11, 13)),
        ]
        work = [
            (params, block)
            for params, ns in cases
            for n in ns
            for block in blocks(params, n)
            if any(block.regular)
        ]

        def reports(order):
            for params, _ in cases:
                geometry_for(params).caches.clear()
            return {
                (params, block.members): (
                    json.dumps(decomposition_matrix(params, block).to_json()),
                    json.dumps(kn_oracle(params, block).to_json()),
                )
                for params, block in order
            }

        assert reports(work) == reports(work[::-1])

    @staticmethod
    def _crossing_stars(monkeypatch, calls):
        """Count in ``calls`` the ``Geometry.star`` calls made inside
        ``paths.cross_wall``, which makes the trie's nodes."""
        real_star, real_cross = geometry.Geometry.star, paths.cross_wall
        inside = []

        def star(self, b, t):
            if inside:
                calls.append(1)
            return real_star(self, b, t)

        def cross(geom, gallery, h):
            inside.append(1)
            try:
                return real_cross(geom, gallery, h)
            finally:
                inside.pop()

        monkeypatch.setattr(geometry.Geometry, "star", star)
        monkeypatch.setattr(paths, "cross_wall", cross)

    @staticmethod
    def _crossed_words(records):
        """The gallery words of the records that crossed their walls."""
        return {
            r.gallery.word for r in records.values() if r.gallery.__class__ is Gallery
        }

    @staticmethod
    def _prefixes(words):
        return {w[:j] for w in words for j in range(len(w) + 1)}

    def test_dp_and_walk_run_once_per_class(self, monkeypatch):
        # columns that differ by a multiple of (1, ..., 1) share one class
        # record, kept under the class representative.  Over both routes,
        # in three block orders, each on a fresh Geometry: one DP pass and
        # one walk per class; trie nodes exactly the prefixes of the words
        # crossed, each made with one star call, the same in every order;
        # one m recursion per distinct gallery word, which classes share;
        # and every run equal to one on a fresh Geometry.  The n=16
        # translate of INTRO then runs none of them.  Each order builds its
        # own blocks, which keep the records they read
        work = [
            (n, block.members[0])
            for n in (13, 14)
            for block in blocks(P_INTRO, n)
            if block.regular[0]
        ]
        shuffled = list(work)
        random.Random(4).shuffle(shuffled)
        zero = (0, 0, 0)
        stars = {}
        runs = {}
        for name, order in [("up", work), ("down", work[::-1]), ("shuffled", shuffled)]:
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            placed, walks, crossing, ran = [], [], [], []
            real_place, real_walk, real_run = paths.place_nodes, paths._walk, soergel._m_of

            def place(params, states, residues):
                placed.append(len(residues))
                return real_place(params, states, residues)

            def walk(geom, values, running, landed, steps):
                walks.append(len(steps))
                return real_walk(geom, values, running, landed, steps)

            def run(geom, gallery):
                ran.append(gallery.word)
                return real_run(geom, gallery)

            with monkeypatch.context() as m:
                m.setattr(paths, "place_nodes", place)
                m.setattr(paths, "_walk", walk)
                m.setattr(soergel, "_m_of", run)
                self._crossing_stars(m, crossing)
                both = set()
                for n, member in order:
                    block = block_of(P_INTRO, n, member)
                    both |= {translation_class(mu)[0] for mu in block.members}
                    decomposition_matrix(P_INTRO, block)
                    kn_oracle(P_INTRO, block)
                geom = geometry_for(P_INTRO)
                records = geom.caches["classes"]
                assert set(records) == both | {zero}, name
                assert len(placed) == len(walks) == len(both), name
                # each pass places the nodes its walk steps over
                assert placed == walks, name
                words = self._crossed_words(records)
                assert len(words) < len(both), name
                nodes = trie_nodes(geom)
                assert {node.word for node in nodes} == self._prefixes(words), name
                assert len(nodes) == len(self._prefixes(words)), name
                assert len(crossing) == len(nodes) - 1, name
                assert sorted(ran) == sorted(words), name
                stars[name] = len(crossing)
                for record in records.values():
                    runs.setdefault(record.gallery.word, []).append(
                        soergel.run_all(P_INTRO, record.gallery)
                    )
                translate = block_of(P_INTRO, 16, (5, 10, 1))
                assert translate.members == tuple(
                    tuple(x + 1 for x in mu)
                    for mu in block_of(P_INTRO, 13, (4, 9, 0)).members
                )
                del placed[:], walks[:], crossing[:], ran[:]
                decomposition_matrix(P_INTRO, translate)
                kn_oracle(P_INTRO, translate)
                assert placed == walks == crossing == ran == [], name
                assert set(records) == both | {zero}, name
        assert len(set(stars.values())) == 1
        for word, found in runs.items():
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            fresh = soergel.run_all(P_INTRO, gallery_along(P_INTRO, word))
            assert all(run == fresh for run in found), word

    @staticmethod
    def _classes(params, n_max):
        """The translation classes of every composition of n <= n_max, by
        increasing size."""
        columns = [q for n in range(n_max + 1) for q in compositions(n, params.l)]
        return sorted(
            {translation_class(q)[0] for q in columns}, key=lambda q: (sum(q), q)
        )

    @staticmethod
    def _orders(classes):
        shuffled = list(classes)
        random.Random(3).shuffle(shuffled)
        return [("up", classes), ("down", classes[::-1]), ("shuffled", shuffled)]

    @staticmethod
    def _outcome(call, *args):
        """("gallery", word) of what ``call(*args)`` returns, a word or a
        ``Gallery``, or the class and message of the ``NotAdmissible`` or
        ``NotAGallery`` it raises."""
        try:
            got = call(*args)
        except (NotAdmissible, NotAGallery) as exc:
            return type(exc), str(exc)
        return "gallery", got.word if got.__class__ is Gallery else got

    @pytest.mark.parametrize("params, n_max", [(P_RANK1, 40), (P_INTRO, 16)])
    def test_class_records_are_exact_in_any_order(self, monkeypatch, params, n_max):
        # a class record extends the stored record of the longest prefix of
        # its loading; built in three class orders, each on a fresh
        # Geometry, every table must equal a DP from the empty tableau and
        # every gallery's word alcove_series of the distinguished path (or
        # both raise the same exception with the same message), with the
        # same star calls
        classes = self._classes(params, n_max)

        def series(q):
            return self._outcome(alcove_series, params, distinguished_path(params, q))

        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        tables = {q: graded_tableau_counts(params, q) for q in classes}
        words = {q: series(q) for q in classes}
        # the references keep no record and no trie
        assert not {"classes", "galleries"} & set(geometry_for(params).caches)
        # at INTRO 31 of the 409 paths are not admissible
        failed = [w for w in words.values() if w[0] != "gallery"]
        assert len(failed) == (31 if params == P_INTRO else 0)
        assert {w[0] for w in failed} <= {NotAdmissible}
        stars, placed = {}, {}
        real_star, real_place = geometry.Geometry.star, paths.place_nodes
        real_walk = paths._walk
        for name, order in self._orders(classes):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            calls, nodes, walked = [], [], []

            def star(self, b, t):
                calls.append(1)
                return real_star(self, b, t)

            def place(params, states, residues):
                nodes.append(residues)
                return real_place(params, states, residues)

            def walk(geom, values, running, landed, steps):
                walked.append(steps)
                return real_walk(geom, values, running, landed, steps)

            with monkeypatch.context() as m:
                m.setattr(geometry.Geometry, "star", star)
                m.setattr(paths, "place_nodes", place)
                m.setattr(paths, "_walk", walk)
                for q in order:
                    before = len(nodes), len(walked)
                    record, k = paths.class_counts(params, q)
                    assert (record.table, k) == (tables[q], 0), (name, q)
                    # a new record places the last nodes of its class's
                    # loading, and walks them unless its prefix is not
                    # admissible
                    new, steps = nodes[before[0]:], walked[before[1]:]
                    assert len(new) <= 1 and len(steps) <= len(new), (name, q)
                    if new:
                        tail = loading(params, q)[-len(new[0]):]
                        assert new[0] == [res for _, res, _ in tail], (name, q)
                        if steps:
                            assert steps[0] == [c for _, _, c in tail], (name, q)
                        else:
                            assert words[q][0] is NotAdmissible, (name, q)
                    got = self._outcome(paths.gallery_of, params, q, record)
                    assert got == words[q], (name, q)
            records = geometry_for(params).caches["classes"]
            assert set(records) == set(classes), name
            stars[name] = len(calls)
            placed[name] = sum(map(len, nodes))
            if params == P_INTRO:
                # the n=16 translate of INTRO builds no record
                before = dict(records)
                translate = block_of(P_INTRO, 16, (5, 10, 1))
                decomposition_matrix(P_INTRO, translate)
                kn_oracle(P_INTRO, translate)
                assert records == before, name
        assert len(set(stars.values())) == 1
        # in increasing order every class continues from the class one node
        # shorter, so each DP places one node; no order places more nodes
        # than a DP per class from the empty tableau would
        assert placed["up"] == len(classes) - 1
        assert max(placed.values()) <= sum(map(sum, classes))

    def test_a_failed_crossing_is_inherited_with_its_message(self, monkeypatch):
        # INTRO's distinguished paths all cross, so a fresh Geometry's
        # ``wall_type`` is made to refuse the wall (1, 2, 1).  A record
        # whose walk lands on it fails to cross there; a record that
        # continues a failed prefix keeps the prefix's message without
        # crossing.  In three class orders gallery_of must raise what
        # alcove_series raises on the same Geometry, with the same message
        classes = self._classes(P_INTRO, 16)
        refused = (1, 2, 1)
        inherited = {}
        for name, order in self._orders(classes):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            geom = geometry_for(P_INTRO)
            real = geom.wall_type
            monkeypatch.setattr(
                geom, "wall_type", lambda a, h: None if h == refused else real(a, h)
            )
            want = {
                q: self._outcome(alcove_series, P_INTRO, distinguished_path(P_INTRO, q))
                for q in classes
            }
            raised = []
            real_cross = paths.cross_wall

            def cross(geom, gallery, h):
                try:
                    return real_cross(geom, gallery, h)
                except NotAGallery:
                    raised.append(h)
                    raise

            with monkeypatch.context() as m:
                m.setattr(paths, "cross_wall", cross)
                for q in order:
                    record = paths.class_counts(P_INTRO, q)[0]
                    got = self._outcome(paths.gallery_of, P_INTRO, q, record)
                    assert got == want[q], (name, q)
            failed = [q for q in classes if want[q][0] is NotAGallery]
            assert failed, name
            assert all(
                want[q][1].startswith("hyperplane (1, 2, 1) does not bound")
                for q in failed
            ), name
            assert set(raised) == {refused}, name
            inherited[name] = len(failed) - len(raised)
        # in decreasing order no prefix is stored before its extensions, so
        # every record crosses from the root; in increasing order most
        # failed records inherit their message
        assert inherited["down"] == 0 < inherited["up"]

    @pytest.mark.parametrize("params, n_max", [(P_RANK1, 40), (P_INTRO, 16)])
    def test_prefix_reuse_is_exact_in_any_order(self, monkeypatch, params, n_max):
        # a node's m continues from its nearest ancestor's; filled in three
        # column orders, each on a fresh Geometry, the trie's nodes must be
        # exactly the prefixes of the words crossed, each made with one
        # star call, the nodes holding an m exactly the prefixes of the
        # words run, and every run must equal one on a fresh Geometry; the
        # crossings must not depend on the order
        classes = self._classes(params, n_max)
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        geom = geometry_for(params)
        words = {
            q: alcove_series(params, distinguished_path(params, q))
            for q in classes
            if not geom.classify(q)
        }
        runs = {}
        for word in set(words.values()):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            runs[word] = soergel.run_all(params, gallery_along(params, word))
        stars, crossings = {}, {}
        real_cross = soergel._cross
        for name, order in self._orders(classes):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            crossing, crossed = [], []

            def cross(*args):
                crossed.append(1)
                return real_cross(*args)

            with monkeypatch.context() as m:
                m.setattr(soergel, "_cross", cross)
                self._crossing_stars(m, crossing)
                for q in order:
                    record = paths.class_counts(params, q)[0]
                    if q in words:
                        gallery = paths.gallery_of(params, q, record)
                        assert gallery.word == words[q], (name, q)
                        assert soergel.run_all(params, gallery) == runs[words[q]], (
                            name, q
                        )
            geom = geometry_for(params)
            nodes = trie_nodes(geom)
            crossed_words = self._crossed_words(geom.caches["classes"])
            assert {node.word for node in nodes} == self._prefixes(crossed_words), name
            assert len(crossing) == len(nodes) - 1, name
            with_m = {node.word for node in nodes if node.m is not None}
            assert with_m == self._prefixes(words.values()), name
            stars[name] = len(crossing)
            crossings[name] = len(crossed)
        # the star calls of the trie, and the crossings of m and of n
        # together, do not depend on the order
        assert len(set(stars.values())) == 1
        assert len(set(crossings.values())) == 1

    def test_translated_block_reads_shifted_counts(self, monkeypatch):
        # the n=16 translate of INTRO reads the tables that n=13 stored, at
        # lam shifted back by (1, 1, 1); every count must still be the DP's
        # own count of that column
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        decomposition_matrix(P_INTRO, block_of(P_INTRO, 13, (4, 9, 0)))
        translate = block_of(P_INTRO, 16, (5, 10, 1))
        dims = decomposition_matrix(P_INTRO, translate).standard_dims
        nonzero = 0
        for mu in translate.members:
            direct = graded_tableau_counts(P_INTRO, mu)
            for lam in translate.members:
                got = paths.graded_path_count(P_INTRO, lam, mu)
                want = direct.get(lam, ZERO)
                assert got == want == dims.get((lam, mu), ZERO), (lam, mu)
                nonzero += bool(got)
        assert nonzero > len(translate.members)

    def test_changed_counts_reach_no_other_route(self, monkeypatch):
        # both routes read one count table per block, each through its own
        # copy: changing the counts one route returned must not reach the
        # other route, nor a later computation of the same block
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        block = block_of(P_INTRO, 13, (4, 9, 0))
        matrix = decomposition_matrix(P_INTRO, block)
        for key in matrix.standard_dims:
            matrix.standard_dims[key] = Laurent.term(-3, 7)
        oracle = kn_oracle(P_INTRO, block)
        again = decomposition_matrix(P_INTRO, block)
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        cold = block_of(P_INTRO, 13, (4, 9, 0))
        assert matrices_equal(oracle, kn_oracle(P_INTRO, cold))
        assert matrices_equal(again, decomposition_matrix(P_INTRO, cold))
        # ``==`` on the dicts: the same keys, and no zero stored
        assert oracle.standard_dims == kn_oracle(P_INTRO, cold).standard_dims
        assert all(oracle.standard_dims.values())

    def test_singular_block_rejected(self):
        sing = next(b for b in blocks(P_INTRO, 13) if not any(b.regular))
        with pytest.raises(NoRegularMember):
            decomposition_matrix(P_INTRO, sing)
        with pytest.raises(NoRegularMember):
            kn_oracle(P_INTRO, sing)

    def test_oracle_rejects_a_count_to_a_weight_as_long(self, monkeypatch):
        # tamper count(nu, mu0) != 0, with mu0 in the fundamental alcove
        # and nu the longest member.  Untampered, column mu0 reaches no
        # other row and no other column reaches row nu, so no triple of
        # three distinct weights holds the tampered pair; yet nu is not
        # shorter than mu0, and the counts cannot factor as D * C
        real = decomposition._standard_dims
        block = block_of(P_INTRO, 13, (4, 9, 0))
        mu0, nu = block.members[0], block.members[-1]
        assert nu == (13, 0, 0)
        g = geometry_for(P_INTRO)
        assert g.length(g.alcove_of(mu0)) == 0

        def dims(params, b):
            counts = real(params, b)
            counts[(nu, mu0)] = Laurent.term(1)
            return counts

        monkeypatch.setattr(decomposition, "_standard_dims", dims)
        with pytest.raises(InternalMismatch) as info:
            kn_oracle(P_INTRO, block)
        message = str(info.value)
        assert "path-counting oracle" in message
        assert "weight %s" % list(nu) in message
        assert "mu=%s" % list(mu0) in message

    @pytest.mark.parametrize(
        "diagonal", [None, Laurent.term(2), Laurent()], ids=["missing", "t^2", "zero"]
    )
    def test_oracle_rejects_a_diagonal_count_other_than_1(
        self, monkeypatch, diagonal
    ):
        # D and C are unitriangular, so count(mu, mu) must be 1: a missing
        # or changed diagonal count cannot factor as D * C, and both the
        # oracle and its dense twin name mu
        real = decomposition._standard_dims
        block = block_of(P_INTRO, 13, (4, 9, 0))
        mu = (5, 6, 2)
        assert mu in block.members

        def dims(params, b):
            counts = real(params, b)
            assert counts[(mu, mu)] is ONE
            if diagonal is None:
                del counts[(mu, mu)]
            else:
                counts[(mu, mu)] = diagonal
            return counts

        monkeypatch.setattr(decomposition, "_standard_dims", dims)
        for route in (kn_oracle, dense_kn_oracle):
            with pytest.raises(InternalMismatch) as info:
                route(P_INTRO, block)
            message = str(info.value)
            assert message.startswith("path-counting oracle: ")
            assert "mu=%s" % list(mu) in message
            assert "is %s, not 1" % (diagonal or ZERO) in message

    def test_oracle_multiplies_once_per_distinct_short_row(self, monkeypatch):
        # a short row (``_oracle_rows``), of at most four products
        # (d(lam, nu), c(nu, mu)), is solved once per distinct input per
        # Geometry, any other row whenever its column is solved; none
        # multiplies outside the triples (lam, nu, mu) with a nonzero
        # count(lam, mu), d(lam, nu) and c(nu, mu), where a loop over every
        # nu that mu reaches would make more.  The oracle multiplies through
        # ``subtract_product``, counted where it looks the kernel up
        real_kernel = decomposition.subtract_product
        long_seen = 0
        for n, member in [(13, (4, 9, 0)), (24, (8, 8, 8)), (45, (15, 15, 15))]:
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            block = block_of(P_INTRO, n, member)
            decomposition_matrix(P_INTRO, block)  # fills the count memo
            products = []

            def counted(acc, a, b):
                products.append(1)
                return real_kernel(acc, a, b)

            with monkeypatch.context() as m:
                m.setattr(decomposition, "subtract_product", counted)
                result = kn_oracle(P_INTRO, block)
                cold = len(products)
                again = kn_oracle(P_INTRO, block)
                warm = len(products) - cold
            assert matrices_equal(result, again)
            rows = _oracle_rows(result)
            # stored values are canonical, so equal inputs are one object
            # and the polynomials key the rows as their identities do
            distinct = {
                (result.standard_dims[key], *pairs)
                for key, (pairs, short) in rows.items()
                if short and pairs
            }
            other = sum(len(p) for p, short in rows.values() if not short)
            support = sum(len(p) for p, _ in rows.values())
            reached = _reached(result)
            assert all(len(p) <= 4 for p, short in rows.values() if short)
            assert cold == sum(len(k) - 1 for k in distinct) + other
            assert cold <= support
            # a second call reads every column that needed work from the
            # column memo, and multiplies nothing
            assert warm == 0
            assert 0 < support < reached
            long_seen += sum(len(p) > 4 for p, _ in rows.values())
        assert long_seen > 0

    def test_multicharge_shift_invariance(self):
        # adding a constant to the multicharge leaves everything unchanged
        base = Params(3, 8, (0, 4, 6))
        shifted = Params(3, 8, (3, 7, 1))
        b1 = block_of(base, 13, (4, 6, 3))
        b2 = block_of(shifted, 13, (4, 6, 3))
        assert b1.members == b2.members
        m1 = decomposition_matrix(base, b1)
        m2 = decomposition_matrix(shifted, b2)
        assert m1.entries == m2.entries
        assert m1.characters == m2.characters
        assert m1.standard_dims == m2.standard_dims

    def test_json_round_trip(self):
        import json

        b = block_of(P_RANK1, 11, (0, 11))
        dm = decomposition_matrix(P_RANK1, b)
        text = json.dumps(dm.to_json())
        assert json.dumps(json.loads(text)) == text


def _oracle_rows(matrix):
    """{(lam, mu): (pairs, short)} for each off-diagonal pair of the matrix
    with a nonzero count: the (d(lam, nu), c(nu, mu)) pairs with both
    nonzero, in the order the oracle scans them, which it subtracts from
    the row of lam in column mu; and whether the row is short, with at
    most four nonzero d(lam, nu) of the columns nu solved before mu, or at
    most four nonzero c(nu, mu) of the rows nu solved before lam."""
    block = matrix.block
    length = dict(zip(block.members, block.lengths))
    column = {q: i for i, q in enumerate(block.members)}
    rank = {q: (-length[q], q) for q in block.members}
    decs = {}  # lam -> [(column of nu, d(lam, nu))]
    chars = {}  # mu -> [(rank of nu, nu, c(nu, mu))]
    for (lam, nu), d in matrix.entries.items():
        if lam != nu:
            decs.setdefault(lam, []).append((column[nu], nu, d))
    for (nu, mu), c in matrix.characters.items():
        if nu != mu:
            chars.setdefault(mu, []).append((rank[nu], nu, c))
    rows = {}
    for (lam, mu), f in matrix.standard_dims.items():
        if not f or lam == mu:
            continue
        row = {nu: d for i, nu, d in decs.get(lam, ()) if i < column[mu]}
        support = sorted(x for x in chars.get(mu, ()) if x[0] < rank[lam])
        pairs = [(row[nu], c) for _, nu, c in support if nu in row]
        rows[lam, mu] = pairs, len(row) <= 4 or len(support) <= 4
    return rows


def _reached(matrix):
    """The triples (lam, nu, mu) of distinct members with nonzero
    count(lam, nu), count(nu, mu) and count(lam, mu)."""
    counts = {k: f for k, f in matrix.standard_dims.items() if f and k[0] != k[1]}
    out_of = {}
    for lam, nu in counts:
        out_of.setdefault(lam, []).append(nu)
    return sum(
        (lam, mu) in counts
        for lam, nu in counts
        for mu in out_of.get(nu, ())
        if mu != lam
    )


# each route and its dense twin (``helpers``), which visits every pair
ROUTES = [
    (decomposition_matrix, dense_decomposition_matrix),
    (kn_oracle, dense_kn_oracle),
]


def _regular_blocks():
    """Every regular block of INTRO at n <= 14, of l=2 e=4 kappa=(0,2) at
    n <= 20 and of l=4 e=8 at n <= 9."""
    for params, ns in [
        (P_INTRO, range(15)),
        (P_RANK1, range(21)),
        (Params(4, 8, (0, 2, 4, 6)), range(10)),
    ]:
        for n in ns:
            for block in blocks(params, n):
                if block.regular[0]:
                    yield params, block


def _outcome(route, params, block):
    """("raised", message) or ("returned", tables, report) of one route."""
    try:
        matrix = route(params, block)
    except InternalMismatch as exc:
        return "raised", str(exc)
    tables = (matrix.entries, matrix.characters, matrix.standard_dims)
    return "returned", tables, matrix.to_json()


def _nonzero(outcome):
    """The outcome with the zero values dropped from its tables."""
    if outcome[0] == "raised":
        return outcome
    kind, tables, report = outcome
    return kind, tuple({k: v for k, v in t.items() if v} for t in tables), report


@cache
def _valid_multicharges(l, e):
    """Every multicharge that ``Params`` accepts at (l, e)."""
    out = []
    for kappa in product(range(e), repeat=l):
        try:
            out.append(Params(l, e, kappa).kappa)
        except ParamsError:
            pass
    return out


class TestObservedSymmetries:
    """Two symmetries of the parameters, observed on every block tried but
    not proved here (ROADMAP item 8): shifting kappa by c * (1, ..., 1) mod
    e, and rotating kappa and every weight by the same r places."""

    @staticmethod
    def _rotate(x, r):
        return tuple(x[r:]) + tuple(x[:r])

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_kappa_shift_and_rotation(self, data):
        # a drawn regular block against the block of its rotated member at
        # the rotated, shifted kappa: each route's three tables must be
        # equal once each (lam, mu) is rotated
        l = data.draw(st.sampled_from((2, 3, 4)), "l")
        e = data.draw(st.integers(2 * l, 2 * l + 3), "e")
        kappa = data.draw(st.sampled_from(_valid_multicharges(l, e)), "kappa")
        c = data.draw(st.integers(0, e - 1), "shift")
        r = data.draw(st.integers(0, l - 1), "rotation")
        n = data.draw(st.integers(0, 12), "n")
        params = Params(l, e, kappa)
        regular = [b for b in blocks(params, n) if b.regular[0]]
        assume(regular)
        block = data.draw(st.sampled_from(regular), "block")
        mu = data.draw(st.sampled_from(block.members), "member")
        rot = self._rotate
        moved = Params(l, e, tuple((k + c) % e for k in rot(kappa, r)))
        image = block_of(moved, n, rot(mu, r))
        assert set(image.members) == {rot(q, r) for q in block.members}
        for route in (decomposition_matrix, kn_oracle):
            want, got = route(params, block), route(moved, image)
            for name in ("entries", "characters", "standard_dims"):
                rekeyed = {
                    (rot(lam, r), rot(nu, r)): f
                    for (lam, nu), f in getattr(want, name).items()
                }
                assert getattr(got, name) == rekeyed, (route.__name__, name)


class TestSparseRoutes:
    """The routes visit only the nonzero counts of each column and store
    only nonzero values; their dense twins visit and store every pair.
    Both must give the same nonzero values and the same report, and on
    changed counts the same error or the same nonzero values."""

    def test_routes_equal_their_dense_twins(self):
        checked = 0
        for params, block in _regular_blocks():
            for route, dense in ROUTES:
                got = _outcome(route, params, block)
                want = _outcome(dense, params, block)
                assert got[0] == want[0] == "returned"
                assert got[1] == _nonzero(want)[1], block.members
                assert got[2] == want[2], block.members
                # the route stores no zero; the twin writes d and the
                # characters at every member pair
                assert all(v for t in got[1] for v in t.values())
                k = len(block.members)
                assert all(len(t) == k**2 for t in want[1][:2])
            checked += 1
        assert checked == 192

    def test_changed_counts_give_the_dense_outcome(self, monkeypatch):
        # per block: zero off-diagonal counts, the member pairs missing from
        # the counts, made nonzero or given a zero that is not the ZERO
        # object, and nonzero counts, diagonal ones included, made such a
        # zero or changed by t^2 or t^-1
        real = decomposition._standard_dims
        rng = random.Random(23)
        seen = set()
        for params, block in _regular_blocks():
            counts = real(params, block)
            zeros = [
                (lam, mu)
                for mu in block.members
                for lam in block.members
                if lam != mu and (lam, mu) not in counts
            ]
            nonzero = list(counts)
            changes = []
            for k in rng.sample(zeros, min(2, len(zeros))):
                changes += [(k, Laurent.term(1)), (k, Laurent())]
            for k in rng.sample(nonzero, min(2, len(nonzero))):
                changes += [
                    (k, Laurent()),
                    (k, add(counts[k], Laurent.term(2))),
                    (k, add(counts[k], Laurent.term(-1))),
                ]
            for key, poly in changes:

                def dims(params, block):
                    changed = real(params, block)
                    changed[key] = poly
                    return changed

                with monkeypatch.context() as m:
                    m.setattr(decomposition, "_standard_dims", dims)
                    for route, dense in ROUTES:
                        got = _nonzero(_outcome(route, params, block))
                        assert got == _nonzero(_outcome(dense, params, block)), (
                            block.members, key, poly
                        )
                        seen.add((route.__name__, got[0]))
        # each route both raised and returned on some change
        assert len(seen) == 4


    @staticmethod
    def _intro_products():
        """{(block, lam, mu): the sum of d(lam, nu) * c(nu, mu) over the nu
        strictly between them} for every pair of INTRO's regular blocks at
        n <= 14 where the sum has a nonzero term: the products the oracle
        subtracts from the row of lam in column mu."""
        out = {}
        for params, block in _regular_blocks():
            if params != P_INTRO:
                continue
            matrix = kn_oracle(params, block)
            for (lam, nu), d in matrix.entries.items():
                for (nu2, mu), c in matrix.characters.items():
                    if lam != nu == nu2 != mu:
                        key = (block, lam, mu)
                        out[key] = add(out.get(key, ZERO), mul(d, c))
        return out

    def test_remainder_that_cancels_stores_neither_value(self, monkeypatch):
        # with count(lam, mu) made the sum the oracle subtracts, the row's
        # remainder cancels to zero: the oracle must agree with its dense
        # twin and store neither d(lam, mu) nor c(lam, mu), though the
        # count it was given is nonzero
        real = decomposition._standard_dims
        products = self._intro_products()
        assert len(products) == 25
        for (block, lam, mu), product in products.items():
            assert product

            def dims(params, block, key=(lam, mu), product=product):
                changed = real(params, block)
                changed[key] = product
                return changed

            with monkeypatch.context() as m:
                m.setattr(decomposition, "_standard_dims", dims)
                got = kn_oracle(P_INTRO, block)
                assert matrices_equal(got, dense_kn_oracle(P_INTRO, block))
                assert got.standard_dims[lam, mu] is product
                assert (lam, mu) not in got.entries, (lam, mu)
                assert (lam, mu) not in got.characters, (lam, mu)

    def test_positive_remainder_is_its_canonical_value(self):
        # a row whose remainder is positive is not split: its d is the
        # value-table object itself, the count when nothing was subtracted
        # made on first use: this test may run before anything filled it
        values = value_table(geometry_for(P_INTRO))
        products = self._intro_products()
        subtracted = 0
        for block in {block for block, _, _ in products}:
            got = kn_oracle(P_INTRO, block)
            counts = got.standard_dims
            for (lam, mu), d in got.entries.items():
                assert values[frozenset(d.terms.items())] is d
                if (block, lam, mu) in products:
                    # count t + t^3 less d(lam, nu) * c(nu, mu) = t
                    assert counts[lam, mu] == Laurent({1: 1, 3: 1})
                    assert d is values[frozenset({(3, 1)})]
                    assert (lam, mu) not in got.characters
                    subtracted += 1
                elif lam != mu and d == counts[lam, mu]:
                    assert d is counts[lam, mu]
        assert subtracted == 25


# l=3 e=8 kappa=(0,4,6) at n=45: 91 members and 2,520 rows, 285 of them
# of more than four products (up to ten), which INTRO's grid never reaches
N_LONG, MU_LONG = 45, (15, 15, 15)


class TestOracleRowMemo:
    """``kn_oracle`` solves each distinct short row once per ``Geometry``,
    in ``caches["oracle_rows"]``, and every other row at each visit; the
    results must not depend on what the memo already holds."""

    @staticmethod
    def fresh_block(monkeypatch):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        return block_of(P_INTRO, N_LONG, MU_LONG)

    def test_cold_and_warm_memo_equal_the_dense_twin(self, monkeypatch):
        block = self.fresh_block(monkeypatch)
        want = _nonzero(_outcome(dense_kn_oracle, P_INTRO, block))
        cold = _outcome(kn_oracle, P_INTRO, block)
        memo = geometry_for(P_INTRO).caches["oracle_rows"]
        size = len(memo)
        warm = _outcome(kn_oracle, P_INTRO, block)
        assert cold == warm == want
        assert want[0] == "returned" and len(memo) == size

    def test_changed_counts_with_a_warm_memo_give_the_dense_outcome(
        self, monkeypatch
    ):
        # a count changed in a short row with products and in a row of
        # more than four, each by t^2 and by t^-1, after the memo is warm
        block = self.fresh_block(monkeypatch)
        rows = _oracle_rows(kn_oracle(P_INTRO, block))
        short = min(k for k, (p, is_short) in rows.items() if is_short and p)
        long = min(k for k, (p, _) in rows.items() if len(p) > 4)
        real = decomposition._standard_dims
        outcomes = set()
        for key in (short, long):
            for change in (Laurent.term(2), Laurent.term(-1)):

                def dims(params, b, key=key, change=change):
                    counts = real(params, b)
                    counts[key] = add(counts[key], change)
                    return counts

                with monkeypatch.context() as m:
                    m.setattr(decomposition, "_standard_dims", dims)
                    got = _nonzero(_outcome(kn_oracle, P_INTRO, block))
                    want = _nonzero(_outcome(dense_kn_oracle, P_INTRO, block))
                    assert got == want, (key, change)
                    outcomes.add(got[0])
        # the memo still gives the unchanged block's tables
        assert _outcome(kn_oracle, P_INTRO, block) == _nonzero(
            _outcome(dense_kn_oracle, P_INTRO, block)
        )
        assert outcomes == {"raised", "returned"}

    def test_each_key_is_the_ids_of_the_inputs_it_keeps(self, monkeypatch):
        block = self.fresh_block(monkeypatch)
        matrix = kn_oracle(P_INTRO, block)
        products = [len(p) for p, _ in _oracle_rows(matrix).values()]
        assert len(block.members) == 91 and len(products) == 2520
        assert sum(k > 4 for k in products) == 285 and max(products) == 10
        values = geometry_for(P_INTRO).caches["values"]
        memo = geometry_for(P_INTRO).caches["oracle_rows"]
        assert memo
        lengths = set()
        for key, (inputs, d, c) in memo.items():
            assert key == tuple(map(id, inputs))
            assert len(inputs) % 2 == 1 and len(inputs) <= 9
            lengths.add(len(inputs))
            count, rest = inputs[0], inputs[1:]
            # the count is a stored value, and each d and c the terms of one
            assert values[frozenset(count.terms.items())] is count
            for terms in rest:
                assert values[frozenset(terms.items())].terms is terms
            assert d is not None or c is not None or rest
        # rows of no product, and of up to four, are kept
        assert lengths == {1, 3, 5, 7, 9}

    def test_block_orders_give_equal_tables_and_work(self, monkeypatch):
        # the memo is shared by every block of the Geometry: in any order
        # of the blocks, the tables are equal and so are the splits and
        # products made, each distinct short row solved once
        real_split = decomposition.split_symmetric
        real_kernel = decomposition.subtract_product
        members = [
            (13, (4, 9, 0)), (16, (5, 10, 1)), (24, (8, 8, 8)), (N_LONG, MU_LONG)
        ]
        seen = []
        for order in (members, members[::-1], members[1::2] + members[::2]):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            calls = {"split": 0, "product": 0}

            def split(f):
                calls["split"] += 1
                return real_split(f)

            def kernel(acc, a, b):
                calls["product"] += 1
                return real_kernel(acc, a, b)

            tables = {}
            with monkeypatch.context() as m:
                m.setattr(decomposition, "split_symmetric", split)
                m.setattr(decomposition, "subtract_product", kernel)
                for n, member in order:
                    matrix = kn_oracle(P_INTRO, block_of(P_INTRO, n, member))
                    tables[n] = (matrix.entries, matrix.characters)
            seen.append((tables, calls))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][1]["split"] > 0 and seen[0][1]["product"] > 0

    def test_equal_but_distinct_counts_give_equal_tables(self, monkeypatch):
        # counts that equal the stored ones but are other objects miss the
        # warm memo, and give the same tables
        block = self.fresh_block(monkeypatch)
        warm = kn_oracle(P_INTRO, block)
        real = decomposition._standard_dims

        def dims(params, b):
            return {k: Laurent(dict(f.terms)) for k, f in real(params, b).items()}

        monkeypatch.setattr(decomposition, "_standard_dims", dims)
        copied = kn_oracle(P_INTRO, block)
        assert all(
            copied.standard_dims[k] is not f for k, f in warm.standard_dims.items()
        )
        assert copied.entries == warm.entries
        assert copied.characters == warm.characters
        assert copied.standard_dims == warm.standard_dims


def _translated_blocks():
    """(block, translate) for every regular block of INTRO at n <= 16 and
    of l=2 e=4 kappa=(0,2) at n <= 40: translate is the block at n + l of
    the block's first member plus (1, ..., 1)."""
    for params, ns in [(P_INTRO, range(17)), (P_RANK1, range(41))]:
        for n in ns:
            for block in blocks(params, n):
                if block.regular[0]:
                    shifted = tuple(x + 1 for x in block.members[0])
                    yield block, block_of(params, n + params.l, shifted)


class TestOracleColumnMemo:
    """``kn_oracle`` solves each column that needed work once per
    ``Geometry``, kept under its class record in
    ``caches["oracle_columns"]``, and a block holding a translate of the
    class reads it; the memo is read and written only for the block's own
    counts."""

    @staticmethod
    def counting(monkeypatch, calls):
        """Count the oracle's ``split_symmetric`` and ``subtract_product``
        calls in calls["split"] and calls["product"]."""
        real_split = decomposition.split_symmetric
        real_kernel = decomposition.subtract_product

        def split(f):
            calls["split"] += 1
            return real_split(f)

        def kernel(acc, a, b):
            calls["product"] += 1
            return real_kernel(acc, a, b)

        monkeypatch.setattr(decomposition, "split_symmetric", split)
        monkeypatch.setattr(decomposition, "subtract_product", kernel)

    def test_exact_in_any_order(self, monkeypatch):
        # in three block orders, each on fresh geometries, every table
        # equals the one a fresh Geometry gives the block alone, and a
        # second call on a block solves nothing
        pairs = list(_translated_blocks())
        # the blocks in order, each followed by its translate when that is
        # not listed yet
        found = list({b: b for pair in pairs for b in pair})
        assert (len(pairs), len(found)) == (165, 189)
        # most translates hold members with a zero coordinate that the
        # shifted block does not
        larger = sum(len(t.members) > len(b.members) for b, t in pairs)
        assert larger == 134

        def tables(matrix):
            return matrix.entries, matrix.characters, matrix.standard_dims

        def rebuilt(block):
            # a new Block in the current Geometry: a Block keeps the counts
            # and class records it read
            return block_of(block.params, block.n, block.members[0])

        fresh = {}
        for block in found:
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            fresh[block] = tables(kn_oracle(block.params, rebuilt(block)))
        shuffled = list(found)
        random.Random(5).shuffle(shuffled)
        calls = {"split": 0, "product": 0}
        self.counting(monkeypatch, calls)
        kept = []
        for order in (found, found[::-1], shuffled):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            for block in order:
                block = rebuilt(block)
                assert tables(kn_oracle(block.params, block)) == fresh[block]
                before = dict(calls)
                again = kn_oracle(block.params, block)
                assert calls == before, block
                assert tables(again) == fresh[block]
            kept.append(
                sum(
                    len(geometry_for(p).caches.get("oracle_columns", ()))
                    for p in (P_INTRO, P_RANK1)
                )
            )
        # each class that needed work is kept once, in any order
        assert kept[0] == kept[1] == kept[2] > 0

    def test_changed_counts_with_a_warm_memo_give_the_dense_outcome(
        self, monkeypatch
    ):
        # with the memo warm, a count changed in a kept column, and in a
        # column whose d feeds a kept column's products, by t^2 and by
        # t^-1: the dense outcome, and nothing read from or written to the
        # memo; the unchanged block then still gives its own tables
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        block = block_of(P_INTRO, N_LONG, MU_LONG)
        own = _outcome(kn_oracle, P_INTRO, block)
        memo = geometry_for(P_INTRO).caches["oracle_columns"]
        stored = dict(memo)
        column = dict(zip(block._records, block.members))
        matrix = kn_oracle(P_INTRO, block)
        rows = _oracle_rows(matrix)
        # a row with products in a kept column, and the pair (lam, nu) of
        # its first product, d(lam, nu) from column nu
        lam, mu = min(
            (lam, mu)
            for (lam, mu), (pairs, _) in rows.items()
            if pairs and any(column[r] == mu for r in stored)
        )
        nu = min(
            nu
            for nu in block.members
            if nu not in (lam, mu)
            and (lam, nu) in matrix.entries
            and (nu, mu) in matrix.characters
        )
        real = decomposition._standard_dims
        outcomes = set()
        for key in ((lam, mu), (lam, nu)):
            for change in (Laurent.term(2), Laurent.term(-1)):

                def dims(params, b, key=key, change=change):
                    counts = real(params, b)
                    counts[key] = add(counts[key], change)
                    return counts

                with monkeypatch.context() as m:
                    m.setattr(decomposition, "_standard_dims", dims)
                    got = _nonzero(_outcome(kn_oracle, P_INTRO, block))
                    want = _nonzero(_outcome(dense_kn_oracle, P_INTRO, block))
                    assert got == want, (key, change)
                    outcomes.add(got[0])
                assert memo == stored and all(memo[r] is stored[r] for r in memo)
        assert outcomes == {"raised", "returned"}
        assert _outcome(kn_oracle, P_INTRO, block) == own
        assert own == _nonzero(_outcome(dense_kn_oracle, P_INTRO, block))

    def test_only_columns_that_needed_work_are_kept(self, monkeypatch):
        # a column is kept exactly when some row is not its own count with
        # no character, as the stored d and c (None for zero) of its
        # off-diagonal rows with a nonzero count, in solve order (by
        # decreasing length, then lexicographically), from the first row
        # that is not its own count with no character on
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        block = block_of(P_INTRO, N_LONG, MU_LONG)
        matrix = kn_oracle(P_INTRO, block)
        memo = geometry_for(P_INTRO).caches["oracle_columns"]
        counts = matrix.standard_dims
        order = sorted(zip([-k for k in block.lengths], block.members))
        kept = 0
        for record, mu in zip(block._records, block.members):
            rows = [lam for _, lam in order if lam != mu and (lam, mu) in counts]
            own = [
                matrix.entries.get((lam, mu)) is counts[lam, mu]
                and (lam, mu) not in matrix.characters
                for lam in rows
            ]
            if record in memo:
                kept += 1
                assert not all(own), mu
                solved = [
                    f
                    for lam in rows[own.index(False) :]
                    for f in (
                        matrix.entries.get((lam, mu)),
                        matrix.characters.get((lam, mu)),
                    )
                ]
                assert len(memo[record]) == len(solved)
                assert all(a is b for a, b in zip(memo[record], solved)), mu
            else:
                assert all(own), mu
        assert 0 < kept < len(block.members)


class TestSharedValues:
    """Every stored value is the canonical value of its polynomial in its
    ``Geometry``'s ``caches["values"]``, and no computation changes the
    terms of one."""

    def stored(self, params, matrices):
        """(where, value) for every value held by the memos of params'
        ``Geometry`` and by the three tables of each of ``matrices``."""
        caches = geometry_for(params).caches
        for mu0, record in caches["classes"].items():
            for lam, f in record.table.items():
                yield ("classes", mu0, lam), f
        for a, fn in caches["n_functions"].items():
            for b, f in fn.items():
                yield ("n_functions", a, b), f
        for node in trie_nodes(geometry_for(params)):
            if node.m is not None:
                for b, f in node.m.items():
                    yield ("m", node.word, b), f
            if node.run is not None:
                for name, fn in zip("mne", node.run):
                    for b, f in fn.items():
                        yield ("run", node.word, name, b), f
        for key, (_, d, c) in caches["oracle_rows"].items():
            for name, f in (("d", d), ("c", c)):
                if f is not None:
                    yield ("oracle_rows", key, name), f
        for record, kept in caches["oracle_columns"].items():
            for i, f in enumerate(kept):
                if f is not None:
                    yield ("oracle_columns", id(record), i // 2, "dc"[i % 2]), f
        for i, matrix in enumerate(matrices):
            for name in ("entries", "characters", "standard_dims"):
                for key, f in getattr(matrix, name).items():
                    yield (i, name, key), f

    def test_every_stored_value_is_canonical(self, monkeypatch):
        # INTRO, its n=16 translate and an l=2 block, each by both routes
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        matrices = {}
        for params, n, mu in [
            (P_INTRO, 13, (4, 9, 0)),
            (P_INTRO, 16, (5, 10, 1)),
            (P_RANK1, 40, (20, 20)),
        ]:
            block = block_of(params, n, mu)
            matrices.setdefault(params, []).extend(
                [decomposition_matrix(params, block), kn_oracle(params, block)]
            )
        for params, found in matrices.items():
            values = geometry_for(params).caches["values"]
            assert values[frozenset({(0, 1)})] is ONE
            seen = 0
            for where, f in self.stored(params, found):
                assert values[frozenset(f.terms.items())] is f, where
                seen += 1
            # equal values are shared: far fewer objects than stored values
            assert 10 * len(values) < seen

    def test_no_stored_value_is_changed(self, monkeypatch):
        # the terms of every canonical value after a first block of each
        # Geometry, against those after further blocks by both routes and
        # the reference DP of every member
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        first = [(P_INTRO, 13, (4, 9, 0)), (P_RANK1, 20, (10, 10))]
        further = [
            block_of(P_INTRO, 16, (5, 10, 1)),
            *(b for b in blocks(P_INTRO, 14) if b.regular[0]),
            block_of(P_RANK1, 40, (20, 20)),
            block_of(P_RANK1, 41, (20, 21)),
        ]
        snapshots = {}
        for params, n, mu in first:
            block = block_of(params, n, mu)
            decomposition_matrix(params, block)
            kn_oracle(params, block)
            values = geometry_for(params).caches["values"]
            snapshots[params] = [(f, dict(f.terms)) for f in values.values()]
        for block in further:
            params = block.params
            decomposition_matrix(params, block)
            kn_oracle(params, block)
            for mu in block.members:
                graded_tableau_counts(params, mu)
        for params, snapshot in snapshots.items():
            assert all(f.terms == terms for f, terms in snapshot)
            for key, f in geometry_for(params).caches["values"].items():
                assert key == frozenset(f.terms.items()), f


class TestStability:
    def test_intro_and_rank1(self):
        b = block_of(P_INTRO, 13, (4, 6, 3))
        assert stability_check(P_INTRO, b, 1)
        b2 = block_of(P_RANK1, 11, (0, 11))
        assert stability_check(P_RANK1, b2, 1)
        assert stability_check(P_RANK1, b2, 2)


class TestLevelTwo:
    def test_labels(self):
        assert level2_label(P_RANK1, (5, 6)) == (0, False)
        assert level2_label(P_RANK1, (4, 7)) == (1, True)
        assert level2_label(P_RANK1, (0, 11)) == (3, True)
        assert level2_label(P_RANK1, (8, 3)) == (1, False)

    def test_closed_form(self):
        assert level2_closed_form(P_RANK1, (0, False), (2, True)) == Laurent.term(2)
        assert level2_closed_form(P_RANK1, (1, True), (3, True)) == Laurent.term(2)
        assert level2_closed_form(P_RANK1, (2, False), (1, True)) == ZERO
        assert level2_closed_form(P_RANK1, (2, True), (2, True)) == ONE
        assert level2_closed_form(P_RANK1, (2, False), (2, True)) == ZERO

    def test_hom_dim(self):
        assert level2_hom_dim(P_RANK1, (1, False), (3, True)) == Laurent.term(2)
        assert level2_hom_dim(P_RANK1, (0, False), (1, False)) == Laurent.term(1)
        assert level2_hom_dim(P_RANK1, (2, False), (1, False)) == ZERO
        assert level2_hom_dim(P_RANK1, (2, False), (2, False)) == ZERO

    def test_rejects_higher_rank(self):
        with pytest.raises(NotLevelTwo):
            level2_closed_form(P_INTRO, (0, False), (1, False))
        with pytest.raises(NotLevelTwo):
            level2_label(P_INTRO, (4, 6, 3))

    def test_matrix_matches_closed_form(self):
        b = block_of(P_RANK1, 11, (0, 11))
        dm = decomposition_matrix(P_RANK1, b)
        for mu in b.members:
            for lam in b.members:
                want = level2_closed_form(
                    P_RANK1, level2_label(P_RANK1, lam), level2_label(P_RANK1, mu)
                )
                assert dm.d(lam, mu) == want
