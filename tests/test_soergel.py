"""Wall-crossing recursions: worked low-rank values, factorisation,
path independence, and agreement with graded path counting."""

from quivertl.geometry import geometry_for
from quivertl.laurent import Laurent, ONE, T, T_INV, ZERO
from quivertl.params import Params
from quivertl.paths import alcove_series, distinguished_path, graded_path_count
from quivertl.soergel import evaluate_at_points, n_function, run_all

from helpers import verify_factorization

P_RANK1 = Params(2, 4, (0, 2))
P_INTRO = Params(3, 8, (0, 4, 6))
P_NEG = Params(3, 6, (0, 2, 4))


def by_floors(fn):
    return {k.floors: v for k, v in fn.values.items()}


class TestRankOneWorkedExample:
    """The full run towards the last alcove on the left of a strip of
    six alcoves, whose intermediate rows are known in closed form."""

    def series(self):
        return alcove_series(P_RANK1, distinguished_path(P_RANK1, (0, 11)))

    def test_final_m_row(self):
        m, _, _, _ = run_all(P_RANK1, self.series())
        m = by_floors(m)
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
        n = by_floors(n)
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
        e = by_floors(e)
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
        assert e.value(g.alcove_of((4, 17, 0))) == ONE
        assert e.value(g.alcove_of((15, 4, 2))) == ONE
        assert e.value(g.alcove_of((6, 9, 0))) == T + T_INV
        assert len(e.values) == 3

    def test_stated_factorisation(self):
        series = alcove_series(P_NEG, distinguished_path(P_NEG, (4, 17, 0)))
        m, _, _, _ = run_all(P_NEG, series)
        g = geometry_for(P_NEG)
        n_a = n_function(g, g.alcove_of((4, 17, 0)))
        n_b = n_function(g, g.alcove_of((15, 4, 2)))
        n_c = n_function(g, g.alcove_of((6, 9, 0)))
        keys = set(m.values) | set(n_a) | set(n_b) | set(n_c)
        for key in keys:
            combined = (
                n_a.get(key, ZERO)
                + n_b.get(key, ZERO)
                + (T + T_INV) * n_c.get(key, ZERO)
            )
            assert m.value(key) == combined

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
                if g.is_regular(lam):
                    assert m.value(g.alcove_of(lam)) == graded_path_count(
                        P_INTRO, lam, mu
                    )

    def test_n_is_path_independent(self):
        # the same target reached through the distinguished path's gallery
        # and through an independently chosen minimal gallery
        g = geometry_for(P_INTRO)
        for mu in [(4, 9, 0), (13, 0, 0), (2, 0, 11)]:
            series = alcove_series(P_INTRO, distinguished_path(P_INTRO, mu))
            _, n_via_series, _, _ = run_all(P_INTRO, series)
            gallery = g.minimal_gallery(g.alcove_of(mu))
            _, n_via_gallery, _, _ = run_all(P_INTRO, gallery)
            assert n_via_series == n_via_gallery

    def test_target_values_are_one(self):
        for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0)]:
            series = alcove_series(P_INTRO, distinguished_path(P_INTRO, mu))
            m, n, e, target = run_all(P_INTRO, series)
            assert m.value(target) == ONE
            assert n.value(target) == ONE
            assert e.value(target) == ONE

    def test_factorization_holds_broadly(self):
        # (0, 19) at l = 2 has a gallery of length 5
        cases = [
            (P_INTRO, mu)
            for mu in [(5, 6, 2), (4, 9, 0), (13, 0, 0), (10, 1, 2), (2, 0, 11)]
        ]
        cases.append((P_RANK1, (0, 19)))
        for params, mu in cases:
            series = alcove_series(params, distinguished_path(params, mu))
            assert verify_factorization(params, series)
