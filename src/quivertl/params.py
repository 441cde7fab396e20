"""
Validated parameter set for a quiver Temperley-Lieb algebra TL_n(kappa).

The algebra is determined by the number of components l, the quantum
characteristic e, and a multicharge kappa of l residues mod e.  The
one-column (Temperley-Lieb) regime needs 2l <= e and the adjacency-free
condition on the multicharge; both are enforced at construction time so
every downstream computation can assume a well-posed alcove geometry.

``Fields`` and its frozen subclass ``FrozenFields`` are the package's one
value-class protocol: ``Params`` here, and ``Block`` and
``DecompositionMatrix`` in ``decomposition``, name their fields in
``_fields`` and write no equality, hash or ``repr`` of their own.
"""

from __future__ import annotations


class ParamsError(ValueError):
    """Invalid (l, e, kappa) configuration."""


_set = object.__setattr__


class Fields:
    """A value class whose equality and ``repr`` are those of its
    ``_fields``, in order; it is mutable and unhashable.  A slot that is
    not in ``_fields`` takes no part in either.

    The value classes are plain ``__slots__`` classes rather than
    dataclasses: importing ``dataclasses`` pulls in ``inspect`` and takes
    about a quarter of the package's import time, which every one-shot
    ``quivertl`` process pays at start-up.  They behave as the dataclasses
    did: the same constructors, equality and ``repr``, the same hash for
    a ``FrozenFields``, and read-only fields for it too."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        return "%s(%s)" % (
            self.__class__.__name__, ", ".join("%s=%r" % pair for pair in pairs)
        )


class FrozenFields(Fields):
    """A ``Fields`` class that hashes as the tuple of its fields and whose
    attributes cannot be assigned or deleted: its ``__init__`` sets them
    with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Params(FrozenFields):
    """Algebra parameters: l components, quantum characteristic e, multicharge.

    ``kappa`` is normalised into [0, e).  Derived data: ``rho`` is the shift
    vector rho_i = e - kappa_i in [1, e].  ``n``, when given, is validated
    and written into ``to_json`` (the ``params`` of every CLI report).
    """

    __slots__ = _fields = ("l", "e", "kappa", "n")

    def __init__(self, l, e, kappa=(), n=None):
        if not isinstance(l, int) or l < 1:
            raise ParamsError("l must be an integer >= 1, got %r" % (l,))
        if not isinstance(e, int):
            raise ParamsError("e must be a finite integer, got %r" % (e,))
        if e < 2:
            raise ParamsError("e must be >= 2, got %r" % (e,))
        if 2 * l > e:
            raise ParamsError("need 2l <= e, got l=%d, e=%d" % (l, e))
        kappa = tuple(int(k) % e for k in kappa)
        if len(kappa) != l:
            raise ParamsError("kappa must have l=%d entries, got %d" % (l, len(kappa)))
        for i in range(l):
            for j in range(l):
                if i != j and kappa[i] in (kappa[j], (kappa[j] + 1) % e):
                    raise ParamsError(
                        "multicharge must satisfy κ_i ∉ {κ_j, κ_j+1} "
                        "(mod e); violated by κ_%d=%d, κ_%d=%d"
                        % (i + 1, kappa[i], j + 1, kappa[j])
                    )
        if n is not None and (not isinstance(n, int) or n < 0):
            raise ParamsError("n must be a nonnegative integer, got %r" % (n,))
        _set(self, "l", l)
        _set(self, "e", e)
        _set(self, "kappa", kappa)
        _set(self, "n", n)

    @property
    def rho(self):
        return tuple(self.e - k for k in self.kappa)

    def to_json(self):
        data = {"l": self.l, "e": self.e, "kappa": list(self.kappa)}
        if self.n is not None:
            data["n"] = self.n
        return data
