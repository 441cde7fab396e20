"""
Wall-crossing recursions on alcove functions.

An alcove function assigns a Laurent polynomial to each alcove.  Running
along a minimal gallery from the fundamental alcove to a target alcove,
two functions are propagated crossing by crossing:

* m: graded dimensions of standard modules (a plain two-term recursion),
* n: graded decomposition numbers, obtained from the same recursion with
  lower-alcove constant terms subtracted off via recursively computed
  auxiliary n-functions.

At each crossing every alcove is paired with the image under reflection
in its own wall of the same type as the wall just crossed; the recursion
only mixes values within such a pair.  After each crossing both functions
are checked to be 1 at the new gallery alcove.

The graded simple characters e are not propagated: they are solved from
the factorisation m = sum over alcoves nu of e(nu) * n_nu (W. Soergel,
Represent. Theory 1 (1997)), and each solved value must be bar-symmetric.

Two memos in ``geom.caches`` hold the results.  ``n_functions`` is keyed
by the target alcove's floors, since n depends only on the end of the
gallery.  ``runs`` keeps each ``run_all`` result under the whole
normalised gallery, not its end: m is defined by the gallery, and e is
solved from m.  Blocks at n and n + l are shifted copies with the same
distinguished galleries, so most runs within a process are repeats.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ONE, ZERO


class InternalMismatch(RuntimeError):
    """Two independent computation routes disagreed."""


class AlcoveFunction:
    """A finitely supported map from alcoves to Laurent polynomials."""

    __slots__ = ("values",)

    def __init__(self, values=None):
        self.values = {}
        if values:
            for key, poly in values.items():
                if poly:
                    self.values[key] = poly

    def value(self, key):
        return self.values.get(key, ZERO)

    def __eq__(self, other):
        return isinstance(other, AlcoveFunction) and self.values == other.values

    def to_json(self, roots):
        items = sorted(self.values.items(), key=lambda kv: kv[0].floors)
        return [
            {"alcove": key.to_json(roots), "poly": poly.to_pairs()}
            for key, poly in items
        ]


def _normalize_gallery(gallery):
    """Accept either a minimal gallery (alcove, wall) crossing list or an
    alcove series whose last entry carries None."""
    return [(a, h) for a, h in gallery if h is not None]


def _pairs(geom, support, crossing):
    """Pair each relevant alcove with its star partner for this crossing,
    each unordered pair once, lower length first."""
    done = set()
    out = []
    for key in list(support):
        if key.floors in done:
            continue
        partner = geom.star(key, crossing)
        done.add(key.floors)
        done.add(partner.floors)
        if geom.length(key) < geom.length(partner):
            out.append((key, partner))
        else:
            out.append((partner, key))
    return out


def _run(geom, crossings):
    """Propagate the m and n alcove functions along ``crossings``.

    Returns (m, n, final alcove).
    """
    fund = geom.fundamental
    m_fn = {fund: ONE}
    n_fn = {fund: ONE}
    cur = fund
    for a, h in crossings:
        succ = geom.star(a, (a, h))
        succ_len = geom.length(succ)
        if succ_len != geom.length(a) + 1:
            raise InternalMismatch("gallery crossing does not increase length")
        new_m = {}
        n_prime = {}
        for low, high in _pairs(geom, set(m_fn) | set(n_fn), (a, h)):
            ml, mh = m_fn.get(low, ZERO), m_fn.get(high, ZERO)
            _put(new_m, high, ml + mh.shift(-1))
            _put(new_m, low, mh + ml.shift(1))
            nl, nh = n_fn.get(low, ZERO), n_fn.get(high, ZERO)
            _put(n_prime, high, nl + nh.shift(-1))
            _put(n_prime, low, nh + nl.shift(1))
        n_fn = dict(n_prime)
        for d_key in sorted(n_prime, key=lambda k: k.floors):
            if d_key == succ or geom.length(d_key) >= succ_len:
                continue
            ct = n_prime[d_key].constant_term()
            if ct == 0:
                continue
            aux = n_function(geom, d_key)
            for b_key, poly in aux.items():
                _put(n_fn, b_key, n_fn.get(b_key, ZERO) - poly * ct, replace=True)
        n_fn = {k: v for k, v in n_fn.items() if v}
        m_fn = {k: v for k, v in new_m.items() if v}
        if m_fn.get(succ) != ONE:
            raise InternalMismatch("m is not 1 at the new gallery alcove")
        if n_fn.get(succ) != ONE:
            raise InternalMismatch("n is not 1 at the new gallery alcove")
        cur = succ
    return m_fn, n_fn, cur


def _put(table, key, poly, replace=False):
    if replace or key not in table:
        table[key] = poly
    else:
        raise InternalMismatch("alcove hit twice within one crossing")


def n_function(geom, target):
    """The n alcove function of ``target``, computed over a minimal gallery
    and memoised; used both as the auxiliary ingredient of the subtraction
    step and for solving and checking the factorisation."""
    memo = geom.caches.setdefault("n_functions", {})
    got = memo.get(target.floors)
    if got is None:
        _, got, _ = _run(geom, geom.minimal_gallery(target))
        memo[target.floors] = got
    return got


def _solve_characters(geom, m_fn):
    """The e with m = sum over alcoves nu of e(nu) * n_nu.

    n_nu is 1 at nu and otherwise lives on shorter alcoves, so walking m's
    support by decreasing length, the part of m not yet accounted for at
    an alcove is e there.
    """
    rest = dict(m_fn)
    e_fn = {}
    for key in sorted(m_fn, key=lambda k: (geom.length(k), k.floors), reverse=True):
        e = rest.pop(key)
        if not e:
            continue
        if e.bar() != e:
            raise InternalMismatch(
                "character at alcove %r is not bar-symmetric: %s" % (key.floors, e)
            )
        e_fn[key] = e
        for b_key, poly in n_function(geom, key).items():
            if b_key == key:
                continue
            if b_key not in rest:
                raise InternalMismatch(
                    "n of alcove %r reaches %r outside the unsolved support of m"
                    % (key.floors, b_key.floors)
                )
            rest[b_key] = rest[b_key] - poly * e
    return e_fn


def run_all(params, gallery):
    """Run the m and n recursions along ``gallery`` (a minimal gallery or
    an alcove series) and solve m = sum e(nu) * n_nu for the characters e.
    Returns (m, n, e) as AlcoveFunctions plus the final alcove, memoised
    per gallery; callers must not modify them."""
    geom = geometry_for(params)
    crossings = tuple(_normalize_gallery(gallery))
    memo = geom.caches.setdefault("runs", {})
    got = memo.get(crossings)
    if got is None:
        m_fn, n_fn, cur = _run(geom, crossings)
        # n does not depend on the gallery, so it serves as the target's n_nu
        geom.caches.setdefault("n_functions", {}).setdefault(cur.floors, n_fn)
        e_fn = _solve_characters(geom, m_fn)
        got = memo[crossings] = (
            AlcoveFunction(m_fn), AlcoveFunction(n_fn), AlcoveFunction(e_fn), cur
        )
    return got


def evaluate_at_points(params, fn, points):
    """Evaluate an alcove function at regular weights (zero off support)."""
    geom = geometry_for(params)
    return {tuple(p): fn.value(geom.alcove_of(p)) for p in points}
