"""
Wall-crossing recursions on alcove functions.

An alcove function assigns a Laurent polynomial to each alcove.  Running
along a minimal gallery from the fundamental alcove to a target alcove,
two functions are propagated crossing by crossing:

* m: graded dimensions of standard modules (a plain two-term recursion),
* n: graded decomposition numbers, obtained from the same recursion with
  lower-alcove constant terms subtracted off via recursively computed
  auxiliary n-functions.

A gallery is the word of the wall types it crosses (``geometry``).  At a
crossing of type t every alcove b is paired with ``geom.star(b, t)``, its
image under reflection in its own wall of type t; the recursion only
mixes values within such a pair.  After each crossing both functions are
checked to be 1 at the new gallery alcove.

The graded simple characters e are not propagated: they are solved from
the factorisation m = sum over alcoves nu of e(nu) * n_nu (W. Soergel,
Represent. Theory 1 (1997)), and each solved value must be bar-symmetric.

Two memos in ``geom.caches`` hold the results.  ``n_functions`` is keyed
by the target alcove, since n depends only on the end of the gallery.
``runs`` keeps each ``run_all`` result under the gallery's whole word,
not its end: m is defined by the gallery, and e is solved from m.  Blocks
at n and n + l are shifted copies with the same distinguished galleries,
and share one ``Geometry``, so most runs within a process are repeats.
"""

from __future__ import annotations

from .geometry import InternalMismatch, geometry_for
from .laurent import ONE, ZERO


def _pairs(geom, support, t):
    """Pair each relevant alcove with its star partner across its wall of
    type t, each unordered pair once, lower length first."""
    done = set()
    out = []
    for key in list(support):
        if key in done:
            continue
        partner = geom.star(key, t)
        done.add(key)
        done.add(partner)
        if geom.length(key) < geom.length(partner):
            out.append((key, partner))
        else:
            out.append((partner, key))
    return out


def _run(geom, word):
    """Propagate the m and n alcove functions along the gallery ``word``.

    Returns (m, n, final alcove).
    """
    cur = geom.fundamental
    m_fn = {cur: ONE}
    n_fn = {cur: ONE}
    for t in word:
        succ = geom.star(cur, t)
        succ_len = geom.length(succ)
        if succ_len != geom.length(cur) + 1:
            raise InternalMismatch("gallery crossing does not increase length")
        new_m = {}
        n_prime = {}
        for low, high in _pairs(geom, set(m_fn) | set(n_fn), t):
            ml, mh = m_fn.get(low, ZERO), m_fn.get(high, ZERO)
            _put(new_m, high, ml + mh.shift(-1))
            _put(new_m, low, mh + ml.shift(1))
            nl, nh = n_fn.get(low, ZERO), n_fn.get(high, ZERO)
            _put(n_prime, high, nl + nh.shift(-1))
            _put(n_prime, low, nh + nl.shift(1))
        n_fn = dict(n_prime)
        for d_key in sorted(n_prime):
            if d_key == succ or geom.length(d_key) >= succ_len:
                continue
            ct = n_prime[d_key].constant_term()
            if ct == 0:
                continue
            aux = n_function(geom, d_key)
            for b_key, poly in aux.items():
                n_fn[b_key] = n_fn.get(b_key, ZERO) - poly * ct
        n_fn = {k: v for k, v in n_fn.items() if v}
        m_fn = {k: v for k, v in new_m.items() if v}
        if m_fn.get(succ) != ONE:
            raise InternalMismatch("m is not 1 at the new gallery alcove")
        if n_fn.get(succ) != ONE:
            raise InternalMismatch("n is not 1 at the new gallery alcove")
        cur = succ
    return m_fn, n_fn, cur


def _put(table, key, poly):
    if key in table:
        raise InternalMismatch("alcove hit twice within one crossing")
    table[key] = poly


def n_function(geom, target):
    """The n alcove function of ``target``, computed over a minimal gallery
    and memoised; used both as the auxiliary ingredient of the subtraction
    step and for solving and checking the factorisation."""
    memo = geom.caches.setdefault("n_functions", {})
    got = memo.get(target)
    if got is None:
        _, got, _ = _run(geom, geom.minimal_gallery(target))
        memo[target] = got
    return got


def _solve_characters(geom, m_fn):
    """The e with m = sum over alcoves nu of e(nu) * n_nu.

    n_nu is 1 at nu and otherwise lives on shorter alcoves, so walking m's
    support by decreasing length, the part of m not yet accounted for at
    an alcove is e there.
    """
    rest = dict(m_fn)
    e_fn = {}
    for key in sorted(m_fn, key=lambda k: (geom.length(k), k), reverse=True):
        e = rest.pop(key)
        if not e:
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
            rest[b_key] = rest[b_key] - poly * e
    return e_fn


def run_all(params, word):
    """Run the m and n recursions along the gallery ``word`` (a tuple of
    wall types, as from ``minimal_gallery`` or ``alcove_series``) and
    solve m = sum e(nu) * n_nu for the characters e.  Returns (m, n, e) as
    dicts from alcove to nonzero Laurent polynomial, plus the final alcove,
    memoised per word; callers must not modify them."""
    geom = geometry_for(params)
    memo = geom.caches.setdefault("runs", {})
    got = memo.get(word)
    if got is None:
        m_fn, n_fn, cur = _run(geom, word)
        # n does not depend on the gallery, so it serves as the target's n_nu
        geom.caches.setdefault("n_functions", {}).setdefault(cur, n_fn)
        e_fn = _solve_characters(geom, m_fn)
        got = memo[word] = (m_fn, n_fn, e_fn, cur)
    return got

