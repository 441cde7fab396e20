"""Test-only checks that recompute a result apart from the code under test."""

from quivertl.geometry import geometry_for
from quivertl.laurent import ZERO
from quivertl.soergel import AlcoveFunction, _run, run_all


def verify_factorization(params, gallery):
    """Check m = sum over alcoves nu of e(nu) * n_nu along ``gallery``.

    Each n_nu is run afresh along a minimal gallery to nu rather than read
    from the memo that ``run_all`` solved e with, and the sum is formed
    here, so a character solve that drifted from m would show.
    """
    geom = geometry_for(params)
    m_fn, _, e_fn, _ = run_all(params, gallery)
    total = {}
    for nu, e in e_fn.values.items():
        _, n_nu, _ = _run(geom, geom.minimal_gallery(nu))
        for key, poly in n_nu.items():
            total[key] = total.get(key, ZERO) + e * poly
    return AlcoveFunction(total) == m_fn
