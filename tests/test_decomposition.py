"""Blocks, decomposition matrices, the path-counting oracle, stability
and the level-two closed forms."""

import json
import random
from itertools import permutations

import pytest

from quivertl import decomposition, geometry, paths, soergel
from quivertl.geometry import InternalMismatch, geometry_for
from quivertl.laurent import Laurent, ONE, ZERO
from quivertl.params import Params, ParamsError
from quivertl.paths import NotAdmissible, NotAGallery, alcove_series, distinguished_path
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
    blocks_by_scan,
    compositions,
    dense_decomposition_matrix,
    dense_kn_oracle,
    is_in_plus_semiring,
    level2_hom_dim,
    residue_multiset,
    stability_check,
)

P_INTRO = Params(3, 8, (0, 4, 6))
P_RANK1 = Params(2, 4, (0, 2))


def _block_grid():
    """(params, n) for every valid kappa order at l = 1..4 and small e,
    singular blocks and n < l included, with n = 0..10; then INTRO and
    RANK1 at larger n, and e much larger than n."""
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

    def test_dp_and_walk_run_once_per_class(self, monkeypatch):
        # columns that differ by a multiple of (1, ..., 1) share one class
        # record, kept under the class representative: over both routes
        # one DP pass and one walk per class, one crossing per distinct
        # landed-wall sequence, which classes share, and one m recursion
        # per distinct gallery word; the n=16 translate of INTRO then runs
        # none of them
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        placed, walks, crossed, ran = [], [], [], []
        real_place, real_walk = paths.place_nodes, paths._walk
        real_cross, real_run = paths._crossings, soergel._m_along

        def place(params, states, residues):
            placed.append(len(residues))
            return real_place(params, states, residues)

        def walk(geom, values, running, landed, steps):
            walks.append(len(steps))
            return real_walk(geom, values, running, landed, steps)

        def cross(geom, landed):
            crossed.append(landed)
            return real_cross(geom, landed)

        def run(geom, word):
            ran.append(word)
            return real_run(geom, word)

        monkeypatch.setattr(paths, "place_nodes", place)
        monkeypatch.setattr(paths, "_walk", walk)
        monkeypatch.setattr(paths, "_crossings", cross)
        monkeypatch.setattr(soergel, "_m_along", run)
        first = block_of(P_INTRO, 13, (4, 9, 0))
        second = block_of(P_INTRO, 14, (4, 10, 0))
        for block in (first, second):
            decomposition_matrix(P_INTRO, block)
            kn_oracle(P_INTRO, block)

        def classes(members):
            return {translation_class(mu)[0] for mu in members}

        both = classes(first.members + second.members)
        records = geometry_for(P_INTRO).caches["classes"]
        assert set(records) == both | {(0, 0, 0)}
        assert len(placed) == len(walks) == len(both)
        # each pass places the nodes its walk steps over
        assert placed == walks
        galleries = {records[q].gallery.landed for q in both}
        assert sorted(crossed) == sorted(galleries)
        assert len(galleries) < len(both)
        words = {records[q].gallery.word for q in both}
        assert sorted(ran) == sorted(words)
        translate = block_of(P_INTRO, 16, (5, 10, 1))
        assert translate.members == tuple(
            tuple(x + 1 for x in mu) for mu in first.members
        )
        del placed[:], walks[:], crossed[:], ran[:]
        decomposition_matrix(P_INTRO, translate)
        kn_oracle(P_INTRO, translate)
        assert placed == walks == crossed == ran == []
        assert set(records) == both | {(0, 0, 0)}

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

    @pytest.mark.parametrize("params, n_max", [(P_RANK1, 40), (P_INTRO, 16)])
    def test_class_records_are_exact_in_any_order(self, monkeypatch, params, n_max):
        # a class record extends the stored record of the longest prefix of
        # its loading; built in three class orders, each on a fresh
        # Geometry, every table must equal a DP from the empty tableau and
        # every word alcove_series of the distinguished path (or both
        # raise the same exception class), with the same star calls
        classes = self._classes(params, n_max)

        def series(q):
            try:
                return alcove_series(params, distinguished_path(params, q))
            except (NotAdmissible, NotAGallery) as exc:
                return type(exc)

        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        tables = {q: graded_tableau_counts(params, q) for q in classes}
        words = {q: series(q) for q in classes}
        assert "classes" not in geometry_for(params).caches
        # at INTRO 31 of the 409 paths are not admissible
        failed = sum(isinstance(w, type) for w in words.values())
        assert failed == (31 if params == P_INTRO else 0)
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
                            assert words[q] is NotAdmissible, (name, q)
                    try:
                        word = paths.gallery_word(params, q, record)
                    except (NotAdmissible, NotAGallery) as exc:
                        word = type(exc)
                    assert word == words[q], (name, q)
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

    @pytest.mark.parametrize("params, n_max", [(P_RANK1, 40), (P_INTRO, 16)])
    def test_prefix_reuse_is_exact_in_any_order(self, monkeypatch, params, n_max):
        # m continues from the longest stored prefix of a gallery word;
        # filled in three column orders, every run must equal one from the
        # fundamental alcove, and the crossings must not depend on the order
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        classes = self._classes(params, n_max)
        geom = geometry_for(params)
        words = {
            q: paths.gallery_word(params, q, paths.class_counts(params, q)[0])
            for q in classes
            if not geom.classify(q)
        }
        # the run memos are emptied before each word
        runs = {}
        for word in set(words.values()):
            geom.caches.pop("runs", None)
            geom.caches.pop("m_prefixes", None)
            runs[word] = soergel.run_all(params, word)
        crossings = {}
        real_cross = soergel._cross
        for name, order in self._orders(classes):
            monkeypatch.setattr(geometry, "_GEOMETRIES", {})
            crossed = []

            def cross(*args):
                crossed.append(1)
                return real_cross(*args)

            with monkeypatch.context() as m:
                m.setattr(soergel, "_cross", cross)
                for q in order:
                    if q in words:
                        soergel.run_all(params, words[q])
            caches = geometry_for(params).caches
            for q, word in words.items():
                assert soergel.run_all(params, word) == runs[word], (name, q)
            prefixes = {w[:j] for w in words.values() for j in range(len(w) + 1)}
            assert set(caches["m_prefixes"]) == prefixes, name
            crossings[name] = len(crossed)
        # the crossings, of m and of n together, do not depend on the order
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

    def test_oracle_multiplies_only_over_the_support(self, monkeypatch):
        # one multiply-subtract per triple (lam, nu, mu) with a nonzero
        # count(lam, mu), d(lam, nu) and c(nu, mu); a loop over every nu
        # that mu reaches would make more.  The oracle multiplies through
        # ``subtract_product``, counted where it looks the kernel up
        real_kernel = decomposition.subtract_product
        for n, member in [(13, (4, 9, 0)), (24, (8, 8, 8))]:
            block = block_of(P_INTRO, n, member)
            decomposition_matrix(P_INTRO, block)  # fills the count memo
            products = []

            def counted(acc, a, b):
                products.append(1)
                return real_kernel(acc, a, b)

            with monkeypatch.context() as m:
                m.setattr(decomposition, "subtract_product", counted)
                result = kn_oracle(P_INTRO, block)
            # the accessors read a missing pair as ZERO
            counts, d, c = result.standard_dim, result.d, result.character
            regs = block.members
            support = reached = 0
            for mu in regs:
                for lam in regs:
                    if lam == mu or not counts(lam, mu):
                        continue
                    for nu in regs:
                        if nu in (lam, mu):
                            continue
                        support += bool(d(lam, nu) and c(nu, mu))
                        reached += bool(counts(lam, nu) and counts(nu, mu))
            assert len(products) == support
            assert 0 < support < reached

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
                    (k, counts[k] + Laurent.term(2)),
                    (k, counts[k] + Laurent.term(-1)),
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
                        out[key] = out.get(key, ZERO) + d * c
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
        values = geometry_for(P_INTRO).caches["values"]
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
        for word, (m_fn, n_fn, e_fn, _) in caches["runs"].items():
            for name, fn in (("m", m_fn), ("n", n_fn), ("e", e_fn)):
                for b, f in fn.items():
                    yield ("runs", word, name, b), f
        for word, (m_fn, _) in caches["m_prefixes"].items():
            for b, f in m_fn.items():
                yield ("m_prefixes", word, b), f
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
