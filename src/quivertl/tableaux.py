"""
One-column multipartition combinatorics: loadings, residues and graded
counts of semistandard tableaux.

A one-column multipartition with l components is a tuple of column
lengths.  The node in row r of component m sits at loading value
x = (m-1) + l*(r-1) and carries residue kappa_m + 1 - r mod e.  A
semistandard tableau of shape lambda and weight mu fills the nodes of
lambda with the loading values of mu, respecting residues and the column
growth conditions.  Reading the entries in increasing order gives the
component word, which is exactly an alcove path; this bijection matches
the tableau degree with the path degree statistic.

``graded_tableau_counts`` counts those tableaux by degree for every shape
at once, with one dynamic-programming pass over the loading values of the
weight; this is how graded path counts are computed.  No tableau is ever
built: the column heights are the path's current point, so a placement's
degree is ``Geometry.step_degree`` from the heights before it to those
after.  The moves of a step depend only on the heights before it and the
residue placed, so they are kept in ``geom.caches["transitions"]``, a
table from ``(heights, residue)`` to the list of ``(next heights, degree
increment)``, filled on first use and shared by every weight of every n
with the same (l, e, kappa).
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import Laurent


def node_residue(params, r, m):
    return (params.kappa[m - 1] + 1 - r) % params.e


def loading(params, lam):
    """The loading of lam: (x, residue, component) triples sorted by x.

    x = (m-1) + l*(r-1) increases row by row and, within a row, by
    component, which is the order the nodes are emitted in."""
    l, e, kappa = params.l, params.e, params.kappa
    out = []
    x = 0
    for row in range(max(lam)):  # row r = row + 1
        for c in range(l):  # component m = c + 1
            if lam[c] > row:
                out.append((x, (kappa[c] - row) % e, c + 1))
            x += 1
    return out


def graded_tableau_counts(params, mu):
    """Graded counts of the semistandard tableaux of weight mu, by shape:
    ``{lam: sum of t^degree over the tableaux of shape lam and weight mu}``
    for every shape lam that has one.

    The loading values of mu are placed in increasing order, each extending
    a component whose next empty node has its residue, and partial
    tableaux with the same column heights are merged: the heights fix the
    residues and degree increments of every later placement.  The column
    rules (first entry of component m at least m - 1, each later entry at
    least the previous plus l) need no state, because a
    placement of the right residue always satisfies them.  Let v < x be
    consecutive entries of a component, so res(x) = res(v) - 1.  If
    x - v < l, then x and v are nodes of mu in components c' > c of the same
    row, or c' < c of consecutive rows; these give kappa_c = kappa_c' + 1
    and kappa_c = kappa_c' respectively, both excluded by Params.  Likewise
    a first entry x < m - 1 of component m would be a first-row node of a
    component c < m with kappa_c = kappa_m.
    """
    geom = geometry_for(params)
    transitions = geom.caches.setdefault("transitions", {})
    states = {(0,) * params.l: {0: 1}}
    for _, res, _ in loading(params, mu):
        grown = {}
        for heights, poly in states.items():
            moves = transitions.get((heights, res))
            if moves is None:
                moves = transitions[heights, res] = _moves(geom, params, heights, res)
            for hs, deg in moves:
                acc = grown.setdefault(hs, {})
                for d, c in poly.items():
                    acc[d + deg] = acc.get(d + deg, 0) + c
        states = grown
    return {lam: Laurent(poly) for lam, poly in states.items()}


def _moves(geom, params, heights, res):
    """The placements of residue res onto the column heights ``heights``:
    ``(next heights, degree increment)`` for each component whose next
    empty node has that residue."""
    out = []
    for m in range(params.l):
        if node_residue(params, heights[m] + 1, m + 1) == res:
            hs = heights[:m] + (heights[m] + 1,) + heights[m + 1 :]
            out.append((hs, geom.step_degree(heights, hs)))
    return out

