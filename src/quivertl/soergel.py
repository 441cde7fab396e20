"""
Wall-crossing recursions on alcove functions.

An alcove function assigns a Laurent polynomial to each alcove.  Two of
them are built by the same two-term crossing (``_cross``):

* m: graded dimensions of standard modules, propagated crossing by
  crossing along a gallery from the fundamental alcove,
* n: graded decomposition numbers, a function of its alcove alone
  (``n_function``).  The n of an alcove a is the crossing of the n of a
  shorter neighbour b = star(a, t), with the constant terms at alcoves
  shorter than a subtracted off through their own n (W. Soergel,
  Represent. Theory 1 (1997)).

A gallery is a node of the ``Geometry``'s trie of galleries
(``paths.Gallery``): the word of the wall types it crosses, its end
alcove and its parent.  At a crossing of type t every alcove b is paired
with star(b, t), its image under reflection in its own wall of type t;
the recursion only mixes values within such a pair.  Which of the two is
shorter is read in O(1) from ``Geometry.crossing``, with no length
summed: the star moves one root floor, b_r to 2m - 1 - b_r for the wall
(i, j, m) at root r, so the partner is longer exactly when
|2m - 1 - b_r - f0_r| > |b_r - f0_r|.  m is checked to be 1 at each
gallery alcove, and n to be 1 at each alcove it is computed for.

The graded simple characters e, with m = sum over alcoves nu of
e(nu) * n_nu, are carried along the gallery with m, not solved from it
(``_cross_characters``).  A crossing of type t multiplies by the
Kazhdan-Lusztig element of t, and n_nu times it is (t + t^-1) n_nu when
star(nu, t) is shorter than nu, and otherwise n_star(nu, t) plus
mu(d, nu) n_d over the alcoves d != nu with star(d, t) shorter than d,
mu(d, nu) being the t^1 coefficient of n_nu(d) (D. Kazhdan and
G. Lusztig, Invent. Math. 53 (1979), in W. Soergel's normalisation,
Represent. Theory 1 (1997)).  So e after a crossing comes from e before
it and from the n of its support, which ``n_function`` keeps.  Each new
e value must be bar-symmetric, the check that the per-column solve of m
made; the solve's other check, that each n_nu stays inside the
unsolved support of m, is now ``run_all``'s: the support of n_nu, for
each nu of e's support, must lie in the support of m, since
e(nu) in N[t + t^-1] and n_nu in N[t] leave nothing to cancel.

Every value that the recursions store (m and the crossed n in
``_cross``, n's subtracted values, e's sums) is the canonical
``Laurent`` of its polynomial in the ``Geometry``'s value table
(``laurent.canonical``), so equal values are one object, a stored 1 is
``ONE`` itself, and the checks that m and n are 1 compare by identity.
The ``.terms`` of a stored value is never changed: n subtracts on term
dicts, each value that a subtraction changes copied once, on its first
write, and changed in place by ``laurent.subtract_product`` (n's
constant terms as the one-term factor {0: ct}); e's sums add through the
same kernel, with negated factors, into dicts of their own, and an e
value that a crossing moves whole stays the stored value it was.  Each
dict becomes a value, through ``laurent.canonical``, once, when it is
stored.

The results are kept in two places.  ``caches["n_functions"]`` is
keyed by alcove, made holding the fundamental alcove's n, and written by
``n_function`` only; ``_cross_characters`` reads it before it calls
``n_function``.  m and e are defined by the gallery, not by its end
alcove, so they are kept on the gallery's trie node, as is the node's
``run``, its (m, n, e).  The root's m and e, 1 at the fundamental
alcove, are set by ``paths.root_gallery``; this module writes every
other m and e and every run.  They are built one crossing at a time, so
a node's m and e continue from its nearest ancestor that holds them, and
every node crossed on the way keeps its own: each node is crossed
exactly once per ``Geometry``, so the crossings made do not depend on
the order in which galleries are run.  On the regular blocks of l = 2
e = 4 at n = 30..40 and of l = 3 e = 6 at n = 19..25 every prefix of a
column's gallery is itself a column's gallery, so there no node holds an
m that some column does not need anyway, and the n of every e support
that a crossing reads is already stored by the check of an earlier run.

Columns that differ by a multiple of (1, ..., 1) have the same gallery
(the translation lemma of ``tableaux``), so blocks at n and n + l are
shifted copies; they share one ``Geometry``, whose class records
(``paths``) give one gallery node per class, and distinct classes with
one gallery word share its node, so its run is made once.
"""

from __future__ import annotations

from .geometry import InternalMismatch, geometry_for
from .laurent import (
    ONE,
    ZERO,
    canonical,
    plus_shifted,
    subtract_product,
    value_table,
)


def _cross(geom, fn, t):
    """The alcove function ``fn`` crossed over walls of type t.

    Each alcove of the support is paired with its star partner across its
    wall of type t; of a pair (low, high), high gets fn(low) + t^-1 fn(high)
    and low gets fn(high) + t fn(low).  The side of each pair is read from
    ``Geometry.crossing``.  Zero values are dropped, and the others are
    canonical.
    """
    crossing = geom.crossing
    out = {}  # term dicts, each this call's own
    for key in fn:
        if key in out:
            continue
        partner, longer = crossing(key, t)
        if partner in out:
            raise InternalMismatch("alcove hit twice within one crossing")
        low, high = (key, partner) if longer else (partner, key)
        fl, fh = fn.get(low, ZERO).terms, fn.get(high, ZERO).terms
        out[high] = plus_shifted(fl, fh, -1)
        out[low] = plus_shifted(fh, fl, 1)
    values = value_table(geom)
    return {k: canonical(values, v) for k, v in out.items() if v}


# the factors that ``subtract_product`` takes to add (t + t^-1) * e and e
_MINUS_T_PLUS_T_INV = {-1: -1, 1: -1}
_MINUS_ONE = {0: -1}


def _cross_characters(geom, e_fn, t):
    """The characters ``e_fn`` of a gallery crossed over walls of type t,
    the e of the gallery one crossing longer, by the multiplication
    formula of the module docstring: each nu of the support gives
    (t + t^-1) e(nu) at nu when star(nu, t) is shorter than nu, and
    otherwise e(nu) at star(nu, t) and mu(d, nu) e(nu) at each alcove d
    with star(d, t) shorter than d, mu(d, nu) being the t^1 coefficient of
    n_nu(d) (never d = nu, where n_nu is 1).  Every side is read from
    ``Geometry.crossing``.  A value moved whole is the stored value
    itself; every sum is canonical and must be bar-symmetric.
    """
    crossing = geom.crossing
    # n_function's memo, read here first to skip a call per alcove: the n
    # of the support are mostly stored already, by the support check of
    # an earlier run
    stored = geom.caches.get("n_functions", {})
    moved = {}  # star(nu, t) -> e(nu), for the nu whose star is longer
    added = {}  # the sums, as term dicts of this call's own
    for nu, e in e_fn.items():
        partner, longer = crossing(nu, t)
        if not longer:
            acc = added.get(nu)
            if acc is None:
                acc = added[nu] = {}
            subtract_product(acc, e.terms, _MINUS_T_PLUS_T_INV)
            continue
        moved[partner] = e
        n_nu = stored.get(nu)
        if n_nu is None:
            n_nu = n_function(geom, nu)
        for d, poly in n_nu.items():
            mu = poly.terms.get(1)
            if mu and not crossing(d, t)[1]:
                acc = added.get(d)
                if acc is None:
                    acc = added[d] = {}
                subtract_product(acc, e.terms, {0: -mu})
    values = value_table(geom)
    for key, acc in added.items():
        e = moved.get(key)
        if e is not None:
            subtract_product(acc, e.terms, _MINUS_ONE)
        if not acc:
            moved.pop(key, None)
            continue
        e = moved[key] = canonical(values, acc)
        if e.bar() != e:
            raise InternalMismatch(
                "character at alcove %r is not bar-symmetric: %s" % (key, e)
            )
    return moved


def n_function(geom, a):
    """The n alcove function of the alcove ``a``, memoised.

    The fundamental alcove has n = 1 there, and the memo is made holding
    it.  Any other alcove a has a wall type t whose crossing b = star(a, t)
    is shorter; n_a is the crossing of n_b, minus ct * n_d for each alcove
    d shorter than a, where ct is the constant term at d of the crossed
    function.  The chain of such b is walked down to a stored n, at the
    latest the fundamental alcove's, and filled in bottom up, to keep it
    shallow.
    """
    memo = geom.caches.get("n_functions")
    if memo is None:
        start = geom.fundamental
        memo = geom.caches["n_functions"] = {start: {start: ONE}}
    got = memo.get(a)
    if got is not None:
        return got
    size = geom.length(a)
    b, t = _lower(geom, a)
    chain = [b]
    while chain[-1] not in memo:
        if len(chain) >= size:
            # each step is one shorter, so the chain has reached length 0
            raise InternalMismatch("the chain below alcove %r does not end" % (a,))
        chain.append(_lower(geom, chain[-1])[0])
    for c in reversed(chain):
        n_function(geom, c)
    crossed = _cross(geom, memo[b], t)
    # the term dicts of the values changed so far, each copied from
    # crossed (or started empty) on its first write
    changed = {}
    for d in sorted(crossed):
        if d == a or geom.length(d) >= size:
            continue
        ct = crossed[d].constant_term()
        if ct == 0:
            continue
        factor = {0: ct}
        for key, poly in n_function(geom, d).items():
            acc = changed.get(key)
            if acc is None:
                value = crossed.get(key)
                acc = changed[key] = {} if value is None else dict(value.terms)
            subtract_product(acc, poly.terms, factor)
    got = dict(crossed)
    values = value_table(geom)
    for key, acc in changed.items():
        if acc:
            got[key] = canonical(values, acc)
        else:
            got.pop(key, None)
    if got.get(a) is not ONE:
        raise InternalMismatch("n is not 1 at alcove %r" % (a,))
    memo[a] = got
    return got


def _lower(geom, a):
    """(b, t) for the first wall type t of alcove a whose b is shorter."""
    for t in range(geom.l):
        b, longer = geom.crossing(a, t)
        if not longer:
            return b, t
    raise InternalMismatch("no wall of alcove %r lowers its length" % (a,))


def run_all(params, gallery):
    """(m, n, e) of the ``paths.Gallery`` node ``gallery``: m and the
    characters e crossed together along it (``_m_of``) and n of its end
    alcove, as dicts from alcove to nonzero Laurent polynomial.  Kept on
    the node as its ``run``; callers must not modify them.

    e is carried, not solved from m = sum over nu of e(nu) * n_nu: each
    crossing applies the Kazhdan-Lusztig multiplication formula
    (``_cross_characters``; W. Soergel, Represent. Theory 1 (1997)), with
    the side of each pair read in O(1) by ``Geometry.crossing``
    (|2m - 1 - b_r - f0_r| > |b_r - f0_r|).  Of the solve's checks, bar
    symmetry moved to the crossing, and the other moved here: every
    e(nu) lies in N[t + t^-1] and every n_nu in N[t], so nothing cancels
    and the support of each n_nu with nu in the support of e lies in the
    support of m; each run checks that."""
    got = gallery.run
    if got is None:
        geom = geometry_for(params)
        m_fn, e_fn = _m_of(geom, gallery)
        n_fn = n_function(geom, gallery.end)
        for nu in e_fn:
            n_nu = n_function(geom, nu)
            if not n_nu.keys() <= m_fn.keys():
                outside = min(set(n_nu) - set(m_fn))
                raise InternalMismatch(
                    "n of alcove %r reaches %r outside the support of m"
                    % (nu, outside)
                )
        got = gallery.run = (m_fn, n_fn, e_fn)
    return got


def _m_of(geom, gallery):
    """(m, e) of the gallery: crossed together from the nearest ancestor
    node that holds them, each node on the way keeping its own, m by
    ``_cross`` and checked to be 1 at each new gallery alcove, e by
    ``_cross_characters``."""
    below = []  # the nodes from the gallery up to that ancestor
    while gallery.m is None:
        below.append(gallery)
        gallery = gallery.parent
    m_fn, e_fn = gallery.m, gallery.e
    for node in reversed(below):
        t = node.word[-1]
        m_fn = _cross(geom, m_fn, t)
        if m_fn.get(node.end) is not ONE:
            raise InternalMismatch("m is not 1 at the new gallery alcove")
        e_fn = _cross_characters(geom, e_fn, t)
        node.m = m_fn
        node.e = e_fn
    return m_fn, e_fn
