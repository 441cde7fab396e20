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
with ``geom.star(b, t)``, its image under reflection in its own wall of
type t; the recursion only mixes values within such a pair.  m is
checked to be 1 at each gallery alcove, and n to be 1 at each alcove it
is computed for.

The graded simple characters e are not propagated: they are solved from
the factorisation m = sum over alcoves nu of e(nu) * n_nu, and each
solved value must be bar-symmetric.

Every value that the recursions store (m and the crossed n in
``_cross``, n's subtracted values, the solved characters) is the
canonical ``Laurent`` of its polynomial in the ``Geometry``'s value
table (``laurent.canonical``), so equal values are one object, a stored
1 is ``ONE`` itself, and the checks that m and n are 1 compare by
identity.  The ``.terms`` of a stored value is never changed: n and e
subtract on term dicts, each value that a subtraction changes copied
once, on its first write, and changed in place by
``laurent.subtract_product`` (n's constant terms as the one-term factor
{0: ct}); the dict becomes a value, through ``laurent.canonical``, once,
when it is stored or read as a solved character.

The results are kept in two places.  ``caches["n_functions"]`` is
keyed by alcove, made holding the fundamental alcove's n, and read and
written by ``n_function`` only.  m is
defined by the gallery, not by its end alcove, so it is kept on the
gallery's trie node, as is the node's ``run``, its (m, n, e).  The
root's m, 1 at the fundamental alcove, is set by ``paths.root_gallery``;
this module writes every other m and every run.  m is built one crossing at a time,
so a node's m continues from its nearest ancestor that holds one, and
every node crossed on the way keeps its own: each node is crossed
exactly once per ``Geometry``, so the crossings made, and the ``star``
calls they make, do not depend on the order in which galleries are
run.  On the regular blocks of l = 2 e = 4 at n = 30..40 and of l = 3
e = 6 at n = 19..25 every prefix of a column's gallery is itself a
column's gallery, so there no node holds an m that some column does not
need anyway.

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
    and low gets fn(high) + t fn(low).  Zero values are dropped, and the
    others are canonical.
    """
    out = {}  # term dicts, each this call's own
    for key in fn:
        if key in out:
            continue
        partner = geom.star(key, t)
        if partner in out:
            raise InternalMismatch("alcove hit twice within one crossing")
        low, high = sorted((key, partner), key=geom.length)
        fl, fh = fn.get(low, ZERO).terms, fn.get(high, ZERO).terms
        out[high] = plus_shifted(fl, fh, -1)
        out[low] = plus_shifted(fh, fl, 1)
    values = value_table(geom)
    return {k: canonical(values, v) for k, v in out.items() if v}


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
        b = geom.star(a, t)
        if geom.length(b) < geom.length(a):
            return b, t
    raise InternalMismatch("no wall of alcove %r lowers its length" % (a,))


def _solve_characters(geom, m_fn):
    """The e with m = sum over alcoves nu of e(nu) * n_nu.

    n_nu is 1 at nu and otherwise lives on shorter alcoves, so walking m's
    support by decreasing length, the part of m not yet accounted for at
    an alcove is e there.
    """
    # the unsolved alcoves, each with the term dict of m there minus what
    # is accounted for so far: None until its first write copies m's
    rest = dict.fromkeys(m_fn)
    e_fn = {}
    values = value_table(geom)
    for key in sorted(m_fn, key=lambda k: (geom.length(k), k), reverse=True):
        acc = rest.pop(key)
        if acc is None:
            e = m_fn[key]
        elif acc:
            e = canonical(values, acc)
        else:
            continue
        if e.bar() != e:
            raise InternalMismatch(
                "character at alcove %r is not bar-symmetric: %s" % (key, e)
            )
        e_fn[key] = e
        for b_key, poly in n_function(geom, key).items():
            if b_key == key:
                continue
            if b_key not in rest:
                raise InternalMismatch(
                    "n of alcove %r reaches %r outside the unsolved support of m"
                    % (key, b_key)
                )
            acc = rest[b_key]
            if acc is None:
                acc = rest[b_key] = dict(m_fn[b_key].terms)
            subtract_product(acc, poly.terms, e.terms)
    return e_fn


def run_all(params, gallery):
    """(m, n, e) of the ``paths.Gallery`` node ``gallery``: the m
    recursion along it (``_m_of``), n of its end alcove, and the
    characters e solved from m = sum e(nu) * n_nu, as dicts from alcove to
    nonzero Laurent polynomial.  Kept on the node as its ``run``; callers
    must not modify them."""
    got = gallery.run
    if got is None:
        geom = geometry_for(params)
        m_fn = _m_of(geom, gallery)
        n_fn = n_function(geom, gallery.end)
        got = gallery.run = (m_fn, n_fn, _solve_characters(geom, m_fn))
    return got


def _m_of(geom, gallery):
    """m of the gallery: crossed from the nearest ancestor node that holds
    an m, each node on the way keeping its own, and checked to be 1 at
    each new gallery alcove."""
    below = []  # the nodes from the gallery up to that ancestor
    while gallery.m is None:
        below.append(gallery)
        gallery = gallery.parent
    m_fn = gallery.m
    for node in reversed(below):
        m_fn = _cross(geom, m_fn, node.word[-1])
        if m_fn.get(node.end) is not ONE:
            raise InternalMismatch("m is not 1 at the new gallery alcove")
        node.m = m_fn
    return m_fn
