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
built: the degree of a placement depends only on the column heights after
it (``placement_degree``).  The moves of a step therefore depend only on
the column heights before it and the residue placed, so they are kept in
``geom.caches["transitions"]``, a table from ``(heights, residue)`` to the
list of ``(next heights, degree increment)``.  It is filled on first use
and shared by every weight of every n with the same (l, e, kappa).
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import Laurent


def node_loading(params, r, m):
    """Loading value of the node in row r (1-based) of component m (1-based)."""
    return (m - 1) + params.l * (r - 1)


def node_residue(params, r, m):
    return (params.kappa[m - 1] + 1 - r) % params.e


def loading(params, lam):
    """The loading of lam: (x, residue, component) triples sorted by x."""
    out = []
    for m in range(1, params.l + 1):
        for r in range(1, lam[m - 1] + 1):
            out.append((node_loading(params, r, m), node_residue(params, r, m), m))
    out.sort()
    return out


def addable_removable(params, lam, res):
    """Components with an addable / removable node of the given residue."""
    addable = []
    removable = []
    for m in range(1, params.l + 1):
        h = lam[m - 1]
        if (params.kappa[m - 1] - h) % params.e == res:
            addable.append(m)
        if h >= 1 and (params.kappa[m - 1] + 1 - h) % params.e == res:
            removable.append(m)
    return addable, removable


def placement_degree(params, heights, m):
    """Degree increment of the placement that made the bottom node of
    component m, given the column heights just after it: the number of
    addable nodes of that node's residue strictly to its right minus the
    number of removable ones."""
    r = heights[m - 1]
    res = node_residue(params, r, m)
    x_here = node_loading(params, r, m)
    addable, removable = addable_removable(params, heights, res)
    return sum(
        1 for c in addable if node_loading(params, heights[c - 1] + 1, c) > x_here
    ) - sum(1 for c in removable if node_loading(params, heights[c - 1], c) > x_here)


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
    transitions = geometry_for(params).caches.setdefault("transitions", {})
    states = {(0,) * params.l: {0: 1}}
    for _, res, _ in loading(params, mu):
        grown = {}
        for heights, poly in states.items():
            moves = transitions.get((heights, res))
            if moves is None:
                moves = transitions[heights, res] = _moves(params, heights, res)
            for hs, deg in moves:
                acc = grown.setdefault(hs, {})
                for d, c in poly.items():
                    acc[d + deg] = acc.get(d + deg, 0) + c
        states = grown
    return {lam: Laurent(poly) for lam, poly in states.items()}


def _moves(params, heights, res):
    """The placements of residue res onto the column heights ``heights``:
    ``(next heights, degree increment)`` for each component whose next
    empty node has that residue."""
    out = []
    for m in range(params.l):
        if node_residue(params, heights[m] + 1, m + 1) == res:
            hs = heights[:m] + (heights[m] + 1,) + heights[m + 1 :]
            out.append((hs, placement_degree(params, hs, m + 1)))
    return out

