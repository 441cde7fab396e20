"""Wall-crossing recursions: worked low-rank values, factorisation,
path independence, and agreement with graded path counting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivertl
from quivertl import geometry, soergel
from quivertl.cli import EXIT_MISMATCH, main
from quivertl.decomposition import blocks
from quivertl.geometry import InternalMismatch, geometry_for
from quivertl.laurent import Laurent, ONE, ZERO
from quivertl.params import Params
from quivertl.paths import alcove_series, distinguished_path, graded_path_count
from quivertl.soergel import n_function, run_all

from helpers import (
    T,
    add,
    evaluate_at_points,
    gallery_n,
    is_kl_basis_element,
    mul,
    verify_factorization,
)

P_RANK1 = Params(2, 4, (0, 2))
P_INTRO = Params(3, 8, (0, 4, 6))
P_NEG = Params(3, 6, (0, 2, 4))

# (params, n): every regular member of these is checked along both its
# distinguished series and a minimal gallery
WIDE = [
    (P_INTRO, 13),
    (P_RANK1, 40),
    (Params(4, 8, (0, 2, 4, 6)), 14),
]


def both_galleries(monkeypatch):
    """(params, alcove, word) for the distinguished series and a minimal
    gallery of every regular member of WIDE, each parameter set on a
    Geometry with empty memos.  Members come longest first, so that n is
    computed by descending through alcoves whose n is not yet stored."""
    monkeypatch.setattr(geometry, "_GEOMETRIES", {})
    for params, n in WIDE:
        g = geometry_for(params)
        for block in blocks(params, n):
            if not all(block.regular):
                continue
            for mu in reversed(block.members):
                a = g.alcove_of(mu)
                yield params, a, alcove_series(params, distinguished_path(params, mu))
                yield params, a, g.minimal_gallery(a)


class TestRankOneWorkedExample:
    """The full run towards the last alcove on the left of a strip of
    six alcoves, whose intermediate rows are known in closed form."""

    def series(self):
        return alcove_series(P_RANK1, distinguished_path(P_RANK1, (0, 11)))

    def test_final_m_row(self):
        m, _, _, _ = run_all(P_RANK1, self.series())
        assert m == {
            (-3,): ONE,
            (-2,): T,
            (-1,): Laurent({0: 1, 2: 1}),
            (0,): Laurent({1: 1, 3: 1}),
            (1,): Laurent.term(2),
            (2,): T,
        }

    def test_final_n_row(self):
        _, n, _, _ = run_all(P_RANK1, self.series())
        assert n == {
            (-3,): ONE,
            (-2,): T,
            (-1,): Laurent.term(2),
            (0,): Laurent.term(3),
            (1,): Laurent.term(2),
            (2,): T,
        }

    def test_final_e_row(self):
        _, _, e, _ = run_all(P_RANK1, self.series())
        assert e == {(-3,): ONE, (-1,): ONE}

    def test_evaluate_at_points(self):
        _, n, e, _ = run_all(P_RANK1, self.series())
        pts = [(4, 7), (5, 6), (0, 11)]
        assert evaluate_at_points(P_RANK1, n, pts) == {
            (4, 7): Laurent.term(2),
            (5, 6): Laurent.term(3),
            (0, 11): ONE,
        }
        assert evaluate_at_points(P_RANK1, e, pts) == {
            (4, 7): ONE,
            (5, 6): ZERO,
            (0, 11): ONE,
        }


class TestNegativeDegreeExample:
    """A character with a genuinely negative exponent: the factorisation
    m = n_a + n_b + (t + t^-1) n_c."""

    def test_character_values(self):
        series = alcove_series(P_NEG, distinguished_path(P_NEG, (4, 17, 0)))
        _, n, e, _ = run_all(P_NEG, series)
        g = geometry_for(P_NEG)
        assert e.get(g.alcove_of((4, 17, 0)), ZERO) == ONE
        assert e.get(g.alcove_of((15, 4, 2)), ZERO) == ONE
        assert e.get(g.alcove_of((6, 9, 0)), ZERO) == Laurent({-1: 1, 1: 1})
        assert len(e) == 3

    def test_stated_factorisation(self):
        series = alcove_series(P_NEG, distinguished_path(P_NEG, (4, 17, 0)))
        m, _, _, _ = run_all(P_NEG, series)
        g = geometry_for(P_NEG)
        n_a = n_function(g, g.alcove_of((4, 17, 0)))
        n_b = n_function(g, g.alcove_of((15, 4, 2)))
        n_c = n_function(g, g.alcove_of((6, 9, 0)))
        keys = set(m) | set(n_a) | set(n_b) | set(n_c)
        for key in keys:
            combined = add(
                n_a.get(key, ZERO),
                n_b.get(key, ZERO),
                mul(Laurent({-1: 1, 1: 1}), n_c.get(key, ZERO)),
            )
            assert m.get(key, ZERO) == combined

    def test_verify_factorization(self):
        series = alcove_series(P_NEG, distinguished_path(P_NEG, (4, 17, 0)))
        assert verify_factorization(P_NEG, series)


class TestCrossChecks:
    def test_m_equals_graded_path_count(self):
        g = geometry_for(P_INTRO)
        for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0), (10, 1, 2)]:
            series = alcove_series(P_INTRO, distinguished_path(P_INTRO, mu))
            m, _, _, _ = run_all(P_INTRO, series)
            for lam in g.orbit_points(g._orbit_key(mu), 13):
                if not g.classify(lam):
                    assert m.get(g.alcove_of(lam), ZERO) == graded_path_count(
                        P_INTRO, lam, mu
                    )

    def test_n_is_path_independent(self, monkeypatch):
        # n_function steps down from its alcove through shorter neighbours;
        # propagating n up along either gallery must give the same function
        memo = {}
        for params, a, word in both_galleries(monkeypatch):
            g = geometry_for(params)
            assert gallery_n(g, word, memo) == n_function(g, a)
            _, n, _, end = run_all(params, word)
            assert end == a and n is n_function(g, a)

    def test_target_values_are_one(self):
        for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0)]:
            series = alcove_series(P_INTRO, distinguished_path(P_INTRO, mu))
            m, n, e, target = run_all(P_INTRO, series)
            assert m.get(target, ZERO) == ONE
            assert n.get(target, ZERO) == ONE
            assert e.get(target, ZERO) == ONE

    def test_factorization_holds_broadly(self, monkeypatch):
        # (0, 19) at l = 2 has a gallery of length 5
        series = alcove_series(P_RANK1, distinguished_path(P_RANK1, (0, 19)))
        assert verify_factorization(P_RANK1, series)
        for params, _, word in both_galleries(monkeypatch):
            assert verify_factorization(params, word)


def alcoves_up_to(g, length):
    """Every alcove of ``g`` of length at most ``length``, found by
    crossing each wall that lengthens an alcove, shortest first."""
    found = [g.fundamental]
    layer = found
    for k in range(length):
        layer = sorted(
            {c for a in layer for t in range(g.l) if g.length(c := g.star(a, t)) == k + 1}
        )
        found += layer
    return found


class TestKazhdanLusztigCertificate:
    """n of every alcove up to a length is the Kazhdan-Lusztig basis
    element of that alcove: 1 there, in tZ[t] elsewhere, and bar-invariant
    (``helpers.is_kl_basis_element``).  This certifies n whatever computed
    it, apart from the geometry (``star`` and ``length``) it shares with
    the recursion."""

    @pytest.mark.parametrize(
        "params, length, count",
        [
            (P_RANK1, 30, 61),
            (P_INTRO, 9, 136),
            (P_NEG, 9, 136),
            (Params(4, 8, (0, 2, 4, 6)), 6, 195),
        ],
        ids=["l2", "l3-intro", "l3-e6", "l4"],
    )
    def test_every_alcove_up_to_a_length(self, monkeypatch, params, length, count):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        g = geometry_for(params)
        alcoves = alcoves_up_to(g, length)
        assert len(alcoves) == count
        memo = {}
        for w in alcoves:
            assert is_kl_basis_element(g, w, n_function(g, w), memo), w

    def test_a_dropped_value_fails(self):
        # n of an alcove of length 8 with one value three lengths below it
        # removed keeps the positivity, degree and parity of d, but is not
        # bar-invariant
        g = geometry_for(P_INTRO)
        memo = {}
        w = alcoves_up_to(g, 8)[-1]
        n_w = n_function(g, w)
        assert is_kl_basis_element(g, w, n_w, memo)
        below = [x for x in n_w if g.length(x) == g.length(w) - 3]
        assert below
        for x in below:
            dropped = {k: v for k, v in n_w.items() if k != x}
            assert not is_kl_basis_element(g, w, dropped, memo), x


class TestDepth:
    def test_cold_n_function_of_a_long_alcove(self):
        # n of an alcove of length 250 on an empty memo descends to the
        # fundamental alcove; under a recursion limit of 150 this passes
        # only if the depth does not grow with the length.  A fresh
        # interpreter keeps the limit and the cold memo to this test.
        code = "\n".join([
            "import sys",
            "sys.setrecursionlimit(150)",
            "from quivertl.geometry import geometry_for",
            "from quivertl.laurent import ONE",
            "from quivertl.params import Params",
            "from quivertl.soergel import n_function",
            "g = geometry_for(Params(2, 4, (0, 2)))",
            "a = g.alcove_of((0, 1000))",
            "assert g.length(a) == 250",
            "assert n_function(g, a)[a] == ONE",
        ])
        src = str(Path(quivertl.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestConsistencyChecks:
    """Each check of the recursions fails on the input it guards against.
    Apart from a word that is not a gallery, such inputs need a tampered
    memo, which goes on a fresh Geometry so that nothing leaks into other
    tests."""

    def fresh(self, monkeypatch, params):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        return geometry_for(params)

    def test_word_that_is_not_a_gallery(self):
        # the second crossing of wall type 0 returns to the fundamental alcove
        with pytest.raises(InternalMismatch, match="does not increase length"):
            run_all(P_INTRO, (0, 0))

    def test_m_not_one_at_the_new_gallery_alcove(self, monkeypatch):
        # a crossing that leaves m as it was keeps it on the fundamental
        # alcove
        self.fresh(monkeypatch, P_INTRO)
        monkeypatch.setattr(soergel, "_cross", lambda geom, fn, t: fn)
        with pytest.raises(InternalMismatch, match="m is not 1 at the new gallery"):
            run_all(P_INTRO, (0,))

    def test_n_not_one_at_its_alcove(self, monkeypatch):
        g = self.fresh(monkeypatch, P_INTRO)
        g.caches["n_functions"] = {g.fundamental: {g.fundamental: Laurent.term(0, 2)}}
        a = g.star(g.fundamental, 0)
        with pytest.raises(InternalMismatch) as exc:
            n_function(g, a)
        assert str(exc.value) == "n is not 1 at alcove %r" % (a,)

    def test_no_wall_lowers_the_length(self, monkeypatch):
        g = self.fresh(monkeypatch, P_INTRO)
        a = g.star(g.fundamental, 0)
        longer = g.star(a, 1)
        monkeypatch.setattr(g, "star", lambda b, t: longer)
        with pytest.raises(InternalMismatch, match="no wall of alcove"):
            n_function(g, a)

    @pytest.mark.parametrize(
        "key, poly, check",
        [
            ((9,), ONE, "outside the unsolved support"),
            ((-1,), Laurent({2: 1, 1: 1}), "is not bar-symmetric"),
        ],
        ids=["support", "bar"],
    )
    def test_character_solve(self, monkeypatch, key, poly, check):
        # the rank-one run's n of its final alcove (-3,), with one value
        # changed before the characters are solved from m
        g = self.fresh(monkeypatch, P_RANK1)
        series = alcove_series(P_RANK1, distinguished_path(P_RANK1, (0, 11)))
        tampered = dict(n_function(g, (-3,)))
        tampered[key] = poly
        g.caches["n_functions"][(-3,)] = tampered
        with pytest.raises(InternalMismatch, match=check):
            run_all(P_RANK1, series)

    def test_decompose_exits_on_a_failed_check(self, monkeypatch, capsys):
        g = self.fresh(monkeypatch, P_INTRO)
        g.caches["n_functions"] = {g.fundamental: {g.fundamental: Laurent.term(0, 2)}}
        code = main(["decompose", "--l", "3", "--e", "8", "--kappa", "0,4,6",
                     "--n", "13", "--mu", "4,9,0"])
        assert code == EXIT_MISMATCH
        assert "n is not 1 at alcove" in capsys.readouterr().err
