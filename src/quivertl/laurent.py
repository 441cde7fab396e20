"""
Exact integer Laurent polynomials in the grading variable t.

All graded data in this package (decomposition numbers, graded dimensions,
simple characters) lives in the ring Z[t, t^-1].  Polynomials are stored
sparsely as a map from exponent to nonzero integer coefficient, so every
operation is exact.

A ``Laurent`` is a stored, comparable value with no ring operators.  All
arithmetic runs on plain term dicts ``{exponent: coefficient}``: a row's
remainder, in the oracle's triangular solve and in the n recursion of
``soergel``, is one dict, changed in place by ``subtract_product``, one
fused multiply-subtract that builds no temporary polynomial, and a wall
crossing adds with ``plus_shifted``.  The graded simple characters e are
carried along a gallery with m, not solved from m = sum e(nu) * n_nu:
``soergel`` crosses them by the Kazhdan-Lusztig multiplication formula
(W. Soergel, Represent. Theory 1 (1997)), with the side of each crossing
read in O(1) from the one root floor that moves
(|2m - 1 - b_r - f0_r| > |b_r - f0_r|, ``Geometry.crossing``), and their
sums add through ``subtract_product`` with negated factors.  The solve's
checks moved with it: each new e value must be bar-symmetric, and each
run's n of e's support must stay inside m's support.
``from_terms`` wraps such a dict as a ``Laurent``, trusting it (no zero
coefficient) and taking it over without checking or copying it; it
serves the values that live only as long as their call.

The same few polynomials recur all over a block, so every value that
outlives its call is canonical: ``canonical`` keeps one ``Laurent`` per
distinct polynomial in a table (``value_table``, one per ``Geometry``,
seeded with ``ONE``), and equal stored values are one object.  Comparing
two stored values then mostly ends at their identity, and ``is ONE``
tells a stored 1.  The rule that makes the sharing safe: the ``.terms``
of a stored value is never changed, by anyone; code that subtracts from
a value copies its terms first.

``split_symmetric`` writes a polynomial with nonnegative coefficients
uniquely as (bar-symmetric part) + (part supported in strictly positive
degrees).  This is the arithmetic engine of the path-counting oracle: a
graded dimension splits into a simple character plus t times a
polynomial.
"""

from __future__ import annotations


class SplitImpossible(ValueError):
    """No decomposition into a bar-symmetric part plus a positive part."""


class Laurent:
    """A sparse Laurent polynomial in t with integer coefficients.

    Instances are stored, comparable values: they hash and compare by
    their term dictionaries, and they have no arithmetic operators; sums
    and products are formed on term dicts (``subtract_product``,
    ``plus_shifted``).  A stored value is shared by every table that holds
    an equal one (``canonical``), so its ``terms`` must never be changed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, coeff in items:
                if coeff:
                    total = acc.get(exp, 0) + coeff
                    if total:
                        acc[exp] = total
                    else:
                        del acc[exp]
        self.terms = acc

    # -- constructors -------------------------------------------------

    @classmethod
    def term(cls, exp, coeff=1):
        return cls({exp: coeff})

    # -- accessors ----------------------------------------------------

    def constant_term(self):
        return self.terms.get(0, 0)

    # -- comparison and bar -------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is Laurent:
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def bar(self):
        """The involution t -> t^-1."""
        return from_terms({-e: c for e, c in self.terms.items()})

    # -- rendering ----------------------------------------------------

    def to_pairs(self):
        """Canonical JSON form: [exponent, coefficient] pairs, increasing."""
        return [[e, self.terms[e]] for e in sorted(self.terms)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                power = "t" if e == 1 else "t^%d" % e
                body = power if abs(c) == 1 else "%d*%s" % (abs(c), power)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Laurent(%r)" % (self.terms,)


_new = object.__new__


def from_terms(terms):
    """The Laurent polynomial of the term dict ``terms``, trusted as it is.

    Precondition: ``terms`` maps exponents to integer coefficients and
    holds no zero coefficient.  Unlike ``Laurent(terms)`` nothing is
    checked or copied: the new object takes the dict over, so the caller
    must not change it afterwards.  For a value that outlives its call,
    ``canonical`` is used instead."""
    out = _new(Laurent)
    out.terms = terms
    return out


def plus_shifted(a, b, k):
    """A new term dict of a + t^k * b, for term dicts ``a`` and ``b``,
    which are only read; no coefficient of the result is zero."""
    acc = dict(a)
    get = acc.get
    for e, c in b.items():
        e += k
        total = get(e, 0) + c
        if total:
            acc[e] = total
        else:
            del acc[e]
    return acc


def subtract_product(acc, a, b):
    """Set ``acc -= a * b`` in place, on term dicts, deleting every
    coefficient that reaches 0.

    ``acc`` must be a dict the caller owns, never the ``.terms`` of a
    stored ``Laurent``, which would change that value behind its back;
    ``a`` and ``b`` are only read, and neither may be ``acc``.  All three
    hold no zero coefficient, and ``acc`` still holds none on return."""
    get = acc.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = e1 + e2
            total = get(e, 0) - c1 * c2
            if total:
                acc[e] = total
            else:
                del acc[e]


ZERO = Laurent()
ONE = Laurent.term(0)


def value_table(geom):
    """``geom.caches["values"]``, the canonical value of each distinct
    polynomial stored under ``geom``, keyed by ``frozenset`` of its terms
    (the key ``Laurent.__hash__`` hashes).  Made on first use and seeded
    with ``ONE``, so a stored 1 is ``ONE`` itself."""
    table = geom.caches.get("values")
    if table is None:
        table = geom.caches["values"] = {frozenset(ONE.terms.items()): ONE}
    return table


def canonical(table, terms):
    """The value of the term dict ``terms`` in ``table`` (``value_table``):
    the stored object on a hit; on a miss a new one, which takes ``terms``
    over as ``from_terms`` does and is stored.  The precondition is
    ``from_terms``'s, and on a miss the caller must not change ``terms``
    afterwards; on a hit it is left as it was."""
    key = frozenset(terms.items())
    got = table.get(key)
    if got is None:
        got = table[key] = from_terms(terms)
    return got


def split_symmetric(f):
    """Split f = e + n with e bar-symmetric and n supported in degrees >= 1.

    The symmetric part is forced: e(-k) = e(k) = f(-k) for k > 0 and
    e(0) = f(0), so n = f - e vanishes in degrees <= 0 and is
    f(k) - f(-k) in each degree k > 0.  Both parts are read off f in one
    pass over its terms.  Raises SplitImpossible when n has a negative
    coefficient, i.e. when no such decomposition exists.

    Both parts are new values, and the split of 0 is two zeros.  When
    every exponent and every coefficient of f is positive, the split is
    (0, f); most rows of the oracle are such, and
    ``decomposition.kn_oracle`` tests that on the row's terms itself
    before it calls this, so that such a row is never wrapped or split.
    """
    terms = f.terms
    sym = {}
    pos = {}
    for e, c in terms.items():
        if e < 0:
            sym[e] = sym[-e] = c
            k, rest = -e, terms.get(-e, 0) - c
        elif e == 0:
            sym[0] = c
            continue
        elif -e in terms:
            continue  # read with its mirror
        else:
            k, rest = e, c
        if rest < 0:
            raise SplitImpossible("no symmetric + positive decomposition of %s" % f)
        if rest:
            pos[k] = rest
    return from_terms(sym), from_terms(pos)
