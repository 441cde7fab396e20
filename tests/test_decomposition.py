"""Blocks, decomposition matrices, the path-counting oracle, stability
and the level-two closed forms."""

import json

import pytest

from quivertl import decomposition, geometry, paths
from quivertl.geometry import InternalMismatch, geometry_for
from quivertl.laurent import Laurent, ONE, ZERO
from quivertl.params import Params
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
    is_in_plus_semiring,
    level2_hom_dim,
    residue_multiset,
    stability_check,
)

P_INTRO = Params(3, 8, (0, 4, 6))
P_RANK1 = Params(2, 4, (0, 2))


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
        for b in blocks(P_INTRO, 13):
            assert len(set(b.regular)) == 1

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
        # block_of builds only the orbit of its member; blocks builds all
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
        for mu in b.regular_members():
            assert dm.d(mu, mu) == ONE
            for lam in b.regular_members():
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
                    regs = block.regular_members()
                    if not regs or not 5 <= max(
                        g.length(g.alcove_of(m)) for m in regs
                    ) <= 8:
                        continue
                    assert matrices_equal(
                        decomposition_matrix(params, block), kn_oracle(params, block)
                    ), (params, block.members)
                    checked += 1
        assert checked == 60

    def test_memos_do_not_change_outputs(self):
        # blocks at n and n + l share alcoves and galleries, so the star,
        # run and n-function memos serve one block from another's entries;
        # both routes must give the same report whatever the order
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

    def test_path_counts_hold_one_block(self, monkeypatch):
        # the count memo keeps the block being computed, which is all that
        # the second route reads again: one DP run per column
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        runs = []
        real = paths.graded_tableau_counts

        def counted(params, mu):
            runs.append(mu)
            return real(params, mu)

        monkeypatch.setattr(paths, "graded_tableau_counts", counted)
        first = block_of(P_INTRO, 13, (4, 9, 0))
        second = block_of(P_INTRO, 14, (4, 10, 0))
        for block in (first, second):
            decomposition_matrix(P_INTRO, block)
            kn_oracle(P_INTRO, block)
        assert runs == list(first.members) + list(second.members)
        memo = geometry_for(P_INTRO).caches["path_counts"]
        assert set(memo) == set(second.members)

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
        # that mu reaches would make more
        real_mul = Laurent.__mul__
        for n, member in [(13, (4, 9, 0)), (24, (8, 8, 8))]:
            block = block_of(P_INTRO, n, member)
            decomposition_matrix(P_INTRO, block)  # fills the count memo
            products = []

            def counted(self, other):
                products.append(1)
                return real_mul(self, other)

            with monkeypatch.context() as m:
                m.setattr(Laurent, "__mul__", counted)
                result = kn_oracle(P_INTRO, block)
            counts, d, c = result.standard_dims, result.entries, result.characters
            regs = block.regular_members()
            support = reached = 0
            for mu in regs:
                for lam in regs:
                    if lam == mu or not counts[(lam, mu)]:
                        continue
                    for nu in regs:
                        if nu in (lam, mu):
                            continue
                        support += bool(d[(lam, nu)] and c[(nu, mu)])
                        reached += bool(counts[(lam, nu)] and counts[(nu, mu)])
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
        for mu in b.regular_members():
            for lam in b.regular_members():
                want = level2_closed_form(
                    P_RANK1, level2_label(P_RANK1, lam), level2_label(P_RANK1, mu)
                )
                assert dm.d(lam, mu) == want
