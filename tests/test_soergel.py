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

from helpers import T, T_INV, evaluate_at_points, gallery_n, verify_factorization

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
            for mu in reversed(block.regular_members()):
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
            (-1,): ONE + T * T,
            (0,): T + T * T * T,
            (1,): T * T,
            (2,): T,
        }

    def test_final_n_row(self):
        _, n, _, _ = run_all(P_RANK1, self.series())
        assert n == {
            (-3,): ONE,
            (-2,): T,
            (-1,): T * T,
            (0,): T * T * T,
            (1,): T * T,
            (2,): T,
        }

    def test_final_e_row(self):
        _, _, e, _ = run_all(P_RANK1, self.series())
        assert e == {(-3,): ONE, (-1,): ONE}

    def test_evaluate_at_points(self):
        _, n, e, _ = run_all(P_RANK1, self.series())
        pts = [(4, 7), (5, 6), (0, 11)]
        assert evaluate_at_points(P_RANK1, n, pts) == {
            (4, 7): T * T,
            (5, 6): T * T * T,
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
        assert e.get(g.alcove_of((6, 9, 0)), ZERO) == T + T_INV
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
            combined = (
                n_a.get(key, ZERO)
                + n_b.get(key, ZERO)
                + (T + T_INV) * n_c.get(key, ZERO)
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
            for lam in g.orbit_points(mu, 13):
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
            ((-1,), T * T + T, "is not bar-symmetric"),
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
