"""
Validated parameter set for a quiver Temperley-Lieb algebra TL_n(kappa).

The algebra is determined by the number of components l, the quantum
characteristic e, and a multicharge kappa of l residues mod e.  The
one-column (Temperley-Lieb) regime needs 2l <= e and the adjacency-free
condition on the multicharge; both are enforced at construction time so
every downstream computation can assume a well-posed alcove geometry.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParamsError(ValueError):
    """Invalid (l, e, kappa) configuration."""


@dataclass(frozen=True)
class Params:
    """Algebra parameters: l components, quantum characteristic e, multicharge.

    ``kappa`` is normalised into [0, e).  Derived data: ``rho`` is the shift
    vector rho_i = e - kappa_i in [1, e].  ``n``, when given, is validated
    and written into ``to_json`` (the ``params`` of every CLI report).
    """

    l: int
    e: int
    kappa: tuple = ()
    n: int | None = None

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 1:
            raise ParamsError("l must be an integer >= 1, got %r" % (self.l,))
        if not isinstance(self.e, int):
            raise ParamsError("e must be a finite integer, got %r" % (self.e,))
        if self.e < 2:
            raise ParamsError("e must be >= 2, got %r" % (self.e,))
        if 2 * self.l > self.e:
            raise ParamsError("need 2l <= e, got l=%d, e=%d" % (self.l, self.e))
        kappa = tuple(int(k) % self.e for k in self.kappa)
        if len(kappa) != self.l:
            raise ParamsError(
                "kappa must have l=%d entries, got %d" % (self.l, len(kappa))
            )
        for i in range(self.l):
            for j in range(self.l):
                if i != j and kappa[i] in (kappa[j], (kappa[j] + 1) % self.e):
                    raise ParamsError(
                        "multicharge must satisfy κ_i ∉ {κ_j, κ_j+1} "
                        "(mod e); violated by κ_%d=%d, κ_%d=%d"
                        % (i + 1, kappa[i], j + 1, kappa[j])
                    )
        object.__setattr__(self, "kappa", kappa)
        if self.n is not None and (not isinstance(self.n, int) or self.n < 0):
            raise ParamsError("n must be a nonnegative integer, got %r" % (self.n,))

    @property
    def rho(self):
        return tuple(self.e - k for k in self.kappa)

    def to_json(self):
        data = {"l": self.l, "e": self.e, "kappa": list(self.kappa)}
        if self.n is not None:
            data["n"] = self.n
        return data
