"""
Wall-crossing recursions on alcove functions.

An alcove function assigns a Laurent polynomial to each alcove.  Running
along a minimal gallery from the fundamental alcove to a target alcove,
three functions are propagated crossing by crossing:

* m: graded dimensions of standard modules (a plain two-term recursion),
* n: graded decomposition numbers, obtained from the same recursion with
  lower-alcove constant terms subtracted off via recursively computed
  auxiliary n-functions,
* e: graded simple characters, tracking what the subtractions remove.

At each crossing every alcove is paired with the image under reflection
in its own wall of the same type as the wall just crossed; the recursion
only mixes values within such a pair.  After each crossing the function
value at the new gallery alcove is 1 (checked for m and n, forced for e).
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import Laurent, ONE, T, T_INV, T_PLUS_TINV, ZERO


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

    def support(self):
        return list(self.values)

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


def _run(geom, crossings, with_m=True, with_e=True):
    """Propagate the m, n and e alcove functions along ``crossings``.

    Returns (m, n, e, final alcove); m and e are None when not requested.
    """
    fund = geom.fundamental
    m_fn = {fund: ONE} if with_m else None
    n_fn = {fund: ONE}
    e_fn = {fund: ONE} if with_e else None
    cur = fund
    for a, h in crossings:
        succ = geom.star(a, (a, h))
        if geom.length(succ) != geom.length(a) + 1:
            raise InternalMismatch("gallery crossing does not increase length")
        support = set(n_fn)
        if with_m:
            support |= set(m_fn)
        if with_e:
            support |= set(e_fn)
        new_m = {} if with_m else None
        n_prime = {}
        new_e = {} if with_e else None
        for low, high in _pairs(geom, support, (a, h)):
            if with_m:
                ml, mh = m_fn.get(low, ZERO), m_fn.get(high, ZERO)
                _put(new_m, high, ml + mh.shift(-1))
                _put(new_m, low, mh + ml.shift(1))
            nl, nh = n_fn.get(low, ZERO), n_fn.get(high, ZERO)
            _put(n_prime, high, nl + nh.shift(-1))
            _put(n_prime, low, nh + nl.shift(1))
            if with_e:
                el, eh = e_fn.get(low, ZERO), e_fn.get(high, ZERO)
                _put(new_e, high, eh * T_PLUS_TINV + el
                     + Laurent.term(0, n_prime.get(high, ZERO).constant_term()))
        n_fn = dict(n_prime)
        succ_len = geom.length(succ)
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
        if with_m:
            new_m = {k: v for k, v in new_m.items() if v}
            if new_m.get(succ) != ONE:
                raise InternalMismatch("m is not 1 at the new gallery alcove")
            m_fn = new_m
        if n_fn.get(succ) != ONE:
            raise InternalMismatch("n is not 1 at the new gallery alcove")
        if with_e:
            new_e = {k: v for k, v in new_e.items() if v}
            new_e[succ] = ONE
            e_fn = new_e
        cur = succ
    return m_fn, n_fn, e_fn, cur


def _put(table, key, poly, replace=False):
    if replace or key not in table:
        table[key] = poly
    else:
        raise InternalMismatch("alcove hit twice within one crossing")


def n_function(geom, target):
    """The n alcove function of ``target``, computed over a minimal gallery
    and memoised; used both as the auxiliary ingredient of the subtraction
    step and for factorisation checks."""
    memo = geom.caches.setdefault("n_functions", {})
    got = memo.get(target.floors)
    if got is None:
        gallery = geom.minimal_gallery(target)
        _, got, _, _ = _run(geom, gallery, with_m=False, with_e=False)
        memo[target.floors] = got
    return got


def run_all(params, gallery):
    """Run the three recursions along ``gallery`` (a minimal gallery or an
    alcove series).  Returns (m, n, e) as AlcoveFunctions plus the final
    alcove."""
    geom = geometry_for(params)
    m_fn, n_fn, e_fn, cur = _run(geom, _normalize_gallery(gallery))
    return AlcoveFunction(m_fn), AlcoveFunction(n_fn), AlcoveFunction(e_fn), cur


def evaluate_at_points(params, fn, points):
    """Evaluate an alcove function at regular weights (zero off support)."""
    geom = geometry_for(params)
    return {tuple(p): fn.value(geom.alcove_of(p)) for p in points}


def verify_factorization(params, gallery):
    """Check m = sum over alcoves nu of n_nu * e(nu) along ``gallery``."""
    geom = geometry_for(params)
    m_fn, _, e_fn, _ = run_all(params, gallery)
    return _verify(geom, m_fn, e_fn)


def _verify(geom, m_fn, e_fn):
    for b_key in m_fn.support():
        total = ZERO
        for nu_key, e_poly in e_fn.values.items():
            total = total + n_function(geom, nu_key).get(b_key, ZERO) * e_poly
        if total != m_fn.value(b_key):
            return False
    for b_key in _union_aux_support(geom, e_fn):
        if b_key not in m_fn.values:
            total = ZERO
            for nu_key, e_poly in e_fn.values.items():
                total = total + n_function(geom, nu_key).get(b_key, ZERO) * e_poly
            if total != ZERO:
                return False
    return True


def _union_aux_support(geom, e_fn):
    out = set()
    for nu_key in e_fn.support():
        out |= set(n_function(geom, nu_key))
    return out
