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

``place_nodes``, the one dynamic-programming loop, counts those tableaux
by degree for every shape at once, placing loading values in increasing
order; this is how graded path counts are computed.  No tableau is ever
built: the column heights are the path's current point, so a placement's
degree is ``Geometry.step_degree`` from the heights before it to those
after.  ``_moves`` computes it as ``paths._walk`` does, from the
constants of each component m that ``Geometry.__init__`` computes once
(``Geometry.components``: m, kappa_m, and the l - 1 roots that m
touches, the only ones whose value changes, each with its value at the
origin): it reads the residue of m's next node as (kappa_m - height) mod
e, computes each touched root's value before the step from its value at
the origin and the heights, and calls ``Geometry.root_step_degree`` only
where the value lands on or leaves a multiple of e.  The moves of a step
depend only on the heights before it and the residue placed, so they are
kept in ``geom.caches["transitions"]``: a list of e tables, one per
residue, each a dict from heights to the tuple of ``(next heights,
degree increment)`` pairs, filled on first use and shared by every weight
of every n with the same (l, e, kappa).  A DP step takes its residue's
table once and looks each state up by its heights alone.  The
counts it returns are canonical values (``laurent.canonical``): one
``Laurent`` per distinct polynomial in ``geom.caches["values"]``, shared
by every table of that (l, e, kappa) and never changed.  It continues
from such values too: a count that no placement shifts or merges is
handed back as the same value, and only the others are copied, summed
and looked up.

Translation lemma.  Let k = min(mu) and mu0 = mu - k*(1, ..., 1), the
representative of mu's translation class (``translation_class``).  The
counts of mu are those of mu0 with every shape shifted by +k*(1, ..., 1)
and no degree shift, and the distinguished paths of mu and mu0 have the
same alcove series word (or both fail with the same exception class):

* mu's loading starts with k full rows of l nodes.
* Params forbids kappa_i in {kappa_j, kappa_j + 1}, so in each of those
  rows exactly one component takes each residue placed, and every
  placement is forced: the heights run through the points
  r*(1, ..., 1) + (1, ..., 1, 0, ..., 0).
* Each such point has root values equal to the origin's, or the origin's
  plus 1, and Params keeps both off the walls (kappa_j - kappa_i is
  neither 0 nor -1 mod e).  So these steps add degree 0 and land on no
  wall.
* At k*(1, ..., 1) the root values are the origin's again, and every
  later residue of mu, and of the shifted heights, is shifted by the same
  -k, so the rest of the DP and of the walk is that of mu0.

So ``paths`` keeps one record per class, under mu0: its count table,
its walk and its gallery word.

Prefix lemma.  Let nu be the shape of the first j nodes of mu's loading
(nu_m of them in component m).  Then the DP of mu after j placements is
the DP of nu, whose states are nu's counts:

* The first j nodes are the nodes of mu with the j smallest loading
  values.  Within component m these values increase with the row, so
  they are rows 1, ..., nu_m of m: the nodes of nu, with the same loading
  values, residues and components.  The loading of nu is therefore the
  first j nodes, in the same order.
* After those j placements the DP holds, for each heights vector, the
  graded count of the tableaux of weight nu with those column heights;
  the heights are the shape, and a state exists exactly when its count
  is nonzero (all counts have positive coefficients).  That is nu's table.
* The first j letters of mu's distinguished path are nu's, so the walk
  along it after j steps is nu's walk.
* A class representative mu0 has a zero coordinate, and nu <= mu0 keeps
  it, so nu is its own representative, whose record is kept under nu.

So a new class record continues from the record of the longest proper
prefix stored and places, and walks, only the remaining nodes.  Which
records are stored depends on the order of requests, but by the lemma
the result does not.  At l = 2 the loading of the representative
(0, m') is a prefix of that of (0, m) for m' < m, and likewise for
(m', 0), so there a record places only the nodes beyond the longest
shorter representative stored on its side.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ONE, canonical, value_table


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


def translation_class(mu):
    """(mu0, k) for k = min(mu): mu0 = mu - k*(1, ..., 1) represents mu's
    translation class, whose counts and gallery are mu's (module
    docstring)."""
    k = min(mu)
    # a list comprehension: on tuples this short a generator costs more
    return (tuple([x - k for x in mu]) if k else tuple(mu)), k


def graded_tableau_counts(params, mu):
    """Graded counts of the semistandard tableaux of weight mu, by shape:
    ``{lam: sum of t^degree over the tableaux of shape lam and weight mu}``
    for every shape lam that has one.  The loading values of mu are placed
    in increasing order by ``place_nodes``, from the empty tableau; this
    is the reference count of any weight, which ``paths`` gets per
    translation class from stored prefixes instead."""
    return place_nodes(
        params, {(0,) * params.l: ONE}, [res for _, res, _ in loading(params, mu)]
    )


def place_nodes(params, states, residues):
    """The one DP loop: the states after placing nodes of the residues
    ``residues``, in order, onto ``states``, a map from column heights to
    the graded count of the partial tableaux with those heights, each a
    stored value (``laurent.canonical``) of this (l, e, kappa).  Returns
    the counts by shape as stored values.  No stored value is changed: one
    that no placement shifts or merges is returned as itself, with no copy
    and no lookup, and every other count is a dict of this call's own
    until it is stored.

    Each placement extends a component whose next empty node has the
    residue, read from the residue's table of ``caches["transitions"]``
    by the heights alone (``_moves`` on a miss), and partial tableaux with
    the same column heights are merged:
    the heights fix the residues and degree increments of every later
    placement.  The column rules (first entry of component m at least
    m - 1, each later entry at least the previous plus l) need no state,
    because a placement of the right residue always satisfies them.  Let
    v < x be consecutive entries of a component, so res(x) = res(v) - 1.
    If x - v < l, then x and v are nodes of mu in components c' > c of
    the same row, or c' < c of consecutive rows; these give
    kappa_c = kappa_c' + 1 and kappa_c = kappa_c' respectively, both
    excluded by Params.  Likewise a first entry x < m - 1 of component m
    would be a first-row node of a component c < m with kappa_c = kappa_m.
    """
    geom = geometry_for(params)
    transitions = geom.caches.get("transitions")
    if transitions is None:
        transitions = geom.caches["transitions"] = [{} for _ in range(params.e)]
    for res in residues:
        table = transitions[res]
        # each state is a stored value or a dict of this call's own, made
        # at its first shift or merge
        grown = {}
        for heights, poly in states.items():
            terms = poly if poly.__class__ is dict else poly.terms
            moves = table.get(heights)
            if moves is None:
                moves = table[heights] = _moves(geom, params, heights, res)
            for hs, deg in moves:
                acc = grown.get(hs)
                if acc is None:
                    if deg:
                        grown[hs] = {d + deg: c for d, c in terms.items()}
                    elif terms is poly:
                        # a dict may move to several heights
                        grown[hs] = dict(poly)
                    else:
                        grown[hs] = poly
                    continue
                if acc.__class__ is not dict:
                    acc = grown[hs] = dict(acc.terms)
                if deg:
                    for d, c in terms.items():
                        d += deg
                        acc[d] = acc.get(d, 0) + c
                else:
                    for d, c in terms.items():
                        acc[d] = acc.get(d, 0) + c
        states = grown
    # dicts taken over unchecked: every count has positive coefficients (a
    # sum of powers of t, one per tableau), so none is zero, and each dict
    # is this call's own
    values = value_table(geom)
    return {
        lam: canonical(values, poly) if poly.__class__ is dict else poly
        for lam, poly in states.items()
    }


def _moves(geom, params, heights, res):
    """The placements of residue res onto the column heights ``heights``,
    as a tuple of ``(next heights, degree increment)`` pairs, one for each
    component whose next empty node has that residue, in component order.
    Component m's next node is in row heights[m] + 1, so its residue is
    (kappa_m - heights[m]) % e; m, kappa_m and the roots m touches, with
    their values at the origin, are ``Geometry.components``, and each
    touched root's degree is ``Geometry.root_step_degree``'s."""
    out = ()
    e = params.e
    step = geom.root_step_degree
    for m, kappa_m, touched in geom.components:
        h = heights[m]
        if (kappa_m - h) % e == res:
            # only the l - 1 roots that touch coordinate m change value,
            # and only one that lands on or leaves a wall adds degree
            deg = 0
            for r, sign, v, i, j in touched:
                v0 = v + heights[i] - heights[j]
                v1 = v0 + sign
                if v0 % e == 0 or v1 % e == 0:
                    deg += step(r, v0, v1)
            hs = [*heights]
            hs[m] = h + 1
            out += ((tuple(hs), deg),)
    return out
