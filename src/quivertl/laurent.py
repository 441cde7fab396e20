"""
Exact integer Laurent polynomials in the grading variable t.

All graded data in this package (decomposition numbers, graded dimensions,
simple characters) lives in the ring Z[t, t^-1].  Polynomials are stored
sparsely as a map from exponent to nonzero integer coefficient, so every
operation is exact.

Beyond ring arithmetic, ``split_symmetric`` writes a polynomial with
nonnegative coefficients uniquely as (bar-symmetric part) + (part supported
in strictly positive degrees).  This is the arithmetic engine of the
path-counting oracle: a graded dimension splits into a simple character
plus t times a polynomial.
"""

from __future__ import annotations


class SplitImpossible(ValueError):
    """No decomposition into a bar-symmetric part plus a positive part."""


class Laurent:
    """A sparse Laurent polynomial in t with integer coefficients.

    Instances behave as immutable values: they hash and compare by their
    term dictionaries and every arithmetic operation returns a new object.
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

    # -- ring structure ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.term(0, other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def _plus(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        if isinstance(other, int):
            other = Laurent.term(0, other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            total = acc.get(e, 0) + sign * c
            if total:
                acc[e] = total
            else:
                del acc[e]
        out = Laurent()
        out.terms = acc
        return out

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Laurent.term(0, other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                total = acc.get(e, 0) + c1 * c2
                if total:
                    acc[e] = total
                else:
                    del acc[e]
        out = Laurent()
        out.terms = acc
        return out

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return Laurent({e + k: coeff for e, coeff in self.terms.items()})

    def bar(self):
        """The involution t -> t^-1."""
        return Laurent({-e: c for e, c in self.terms.items()})

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


ZERO = Laurent()
ONE = Laurent.term(0)
T = Laurent.term(1)
T_INV = Laurent.term(-1)


def split_symmetric(f):
    """Split f = e + n with e bar-symmetric and n supported in degrees >= 1.

    The symmetric part is forced: e(-k) = e(k) = f(-k) for k > 0 and
    e(0) = f(0).  Raises SplitImpossible when the remainder acquires a
    negative coefficient, i.e. when no such decomposition exists.
    """
    sym = {}
    for e, c in f.terms.items():
        if e < 0:
            sym[e] = c
            sym[-e] = c
        elif e == 0:
            sym[0] = c
    e_part = Laurent()
    e_part.terms = sym
    n_part = f - e_part
    if any(c < 0 for c in n_part.terms.values()) or any(e <= 0 for e in n_part.terms):
        raise SplitImpossible("no symmetric + positive decomposition of %s" % f)
    return e_part, n_part

