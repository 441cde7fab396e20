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

A gallery is the word of the wall types it crosses (``geometry``).  At a
crossing of type t every alcove b is paired with ``geom.star(b, t)``, its
image under reflection in its own wall of type t; the recursion only
mixes values within such a pair.  m is checked to be 1 at each gallery
alcove, and n to be 1 at each alcove it is computed for.

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

Three memos in ``geom.caches`` hold the results.  ``n_functions`` is
keyed by alcove and is read and written by ``n_function`` only.  ``runs``
keeps each ``run_all`` result under the gallery's whole word, not its
end: m is defined by the gallery, and e is solved from m.  It is keyed by
word rather than by translation class, because distinct classes share
words, and each shared word then solves e once.  The prefix
memo ``m_prefixes`` keeps (m, end alcove) under every prefix of every
word run so far; m is built one crossing at a time, so a new word's m
continues from its longest stored prefix.  Every prefix is stored, not
only whole words, so that each distinct prefix is crossed exactly once
per ``Geometry``: the crossings made, and the ``star`` calls they make,
then do not depend on the order in which words are requested.  On the
regular blocks of l = 2 e = 4 at n = 30..40 and of l = 3 e = 6 at
n = 19..25 every prefix of a column's word is itself a column's word,
so there the memo holds no m that some column does not need anyway.

Columns that differ by a multiple of (1, ..., 1) have the same gallery
(the translation lemma of ``tableaux``), so blocks at n and n + l are
shifted copies; they share one ``Geometry``, whose class records
(``paths``) give one gallery word per class, crossed once per distinct
landed-wall sequence, and ``runs`` one run per word.
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

    The fundamental alcove has n = 1 there.  Any other alcove a has a wall
    type t whose crossing b = star(a, t) is shorter; n_a is the crossing of
    n_b, minus ct * n_d for each alcove d shorter than a, where ct is the
    constant term at d of the crossed function.  The chain of such b is
    walked down to a stored n and filled in bottom up, to keep it shallow.
    """
    memo = geom.caches.setdefault("n_functions", {})
    got = memo.get(a)
    if got is not None:
        return got
    if a == geom.fundamental:
        got = memo[a] = {a: ONE}
        return got
    size = geom.length(a)
    b, t = _lower(geom, a)
    chain = [b]
    while chain[-1] not in memo and chain[-1] != geom.fundamental:
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


def run_all(params, word):
    """Run the m recursion along the gallery ``word`` (a tuple of wall
    types, as from ``alcove_series``), take n of its final alcove, and
    solve m = sum e(nu) * n_nu for the characters e.  Returns (m, n, e) as
    dicts from alcove to nonzero Laurent polynomial, plus the final
    alcove, memoised per word; callers must not modify them."""
    geom = geometry_for(params)
    memo = geom.caches.setdefault("runs", {})
    got = memo.get(word)
    if got is None:
        m_fn, cur = _m_along(geom, word)
        n_fn = n_function(geom, cur)
        got = memo[word] = (m_fn, n_fn, _solve_characters(geom, m_fn), cur)
    return got


def _m_along(geom, word):
    """(m, end alcove) of the gallery ``word``: m continues from the
    longest prefix of the word in ``caches["m_prefixes"]``, and every
    prefix crossed on the way is stored there."""
    prefixes = geom.caches.get("m_prefixes")
    if prefixes is None:
        start = geom.fundamental
        prefixes = geom.caches["m_prefixes"] = {(): ({start: ONE}, start)}
    j = len(word)
    while word[:j] not in prefixes:
        j -= 1
    m_fn, cur = prefixes[word[:j]]
    for j in range(j, len(word)):
        t = word[j]
        succ = geom.star(cur, t)
        if geom.length(succ) != geom.length(cur) + 1:
            raise InternalMismatch("gallery crossing does not increase length")
        m_fn = _cross(geom, m_fn, t)
        if m_fn.get(succ) is not ONE:
            raise InternalMismatch("m is not 1 at the new gallery alcove")
        cur = succ
        prefixes[word[: j + 1]] = (m_fn, cur)
    return m_fn, cur
