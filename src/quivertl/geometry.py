"""
Alcove geometry for the affine symmetric group acting on l-part weights.

Weights live in Z^l and the affine Weyl group W_e (type affine A_{l-1},
generated by the reflections in the hyperplanes <x + rho, e_i - e_j> = m*e)
acts through the rho-shifted action w.x = w(x + rho) - rho, where
rho_i = e - kappa_i.  Alcoves are the connected components of the
complement of the hyperplane arrangement; the fundamental alcove is the
one containing the origin.

An alcove is its floor vector: for each positive root e_i - e_j (i < j)
the integer part of <x + rho, e_i - e_j> / e.  ``Geometry._elems`` maps
each alcove met so far to the affine group element w carrying the
fundamental alcove onto it.  All geometry is integer data read off w: the
floor vector of w . fundamental follows from the fundamental alcove's
floors and w's permutation and translation (a multiple of e), and the
walls of w . fundamental are w applied to the l walls of the fundamental
alcove.  The index t of a wall of the fundamental alcove in
``Geometry._walls`` is the type of each of its images, and a gallery from
the fundamental alcove is the word of the wall types it crosses.  Minimal
galleries are built by crossing, one at a time, a wall that separates the
current alcove from the target; the wall-crossing ("star") operation takes
b = v . fundamental to v s_t . fundamental.

``Geometry.step_degree``, the degree of a unit step of a path, is the one
step degree of the package; the path-count DP caches it per move.

``Geometry.star`` is memoised in ``geom.caches["stars"]`` under ``(b, t)``.
Blocks at n and n + l are shifted copies with the same alcoves and
crossings, so most calls within a process are repeats.
"""

from __future__ import annotations

from dataclasses import dataclass


class InternalMismatch(RuntimeError):
    """A result failed one of the program's own consistency checks, or two
    independent computation routes disagreed."""


class SingularPoint(ValueError):
    """A weight on a hyperplane was passed where a regular one is required."""


@dataclass(frozen=True)
class Hyperplane:
    """The wall <x + rho, e_i - e_j> = m * e, with 1-based i < j."""

    i: int
    j: int
    m: int


@dataclass(frozen=True)
class AffineElement:
    """An affine transformation x -> sigma(x) + trans with sigma a
    coordinate permutation.  ``perm[i]`` is the position coordinate i is
    sent to, so (w x)_{perm[i]} = x_i + trans[perm[i]].
    """

    perm: tuple
    trans: tuple

    @classmethod
    def identity(cls, l):
        return cls(tuple(range(l)), (0,) * l)

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        sigma_tau = [0] * len(self.perm)
        for i in range(len(self.perm)):
            sigma_tau[self.perm[i]] = other.trans[i]
        trans = tuple(sigma_tau[i] + self.trans[i] for i in range(len(self.perm)))
        return AffineElement(perm, trans)


def reflection_element(l, e, h):
    """The reflection in ``h`` as an (unshifted) AffineElement."""
    i, j = h.i - 1, h.j - 1
    perm = list(range(l))
    perm[i], perm[j] = j, i
    trans = [0] * l
    trans[i] = h.m * e
    trans[j] = -h.m * e
    return AffineElement(tuple(perm), tuple(trans))


class Geometry:
    """Alcove-geometry context for one parameter set, with memoised alcoves."""

    def __init__(self, params):
        self.l = params.l
        self.e = params.e
        self.rho = params.rho
        self.roots = [(i, j) for i in range(self.l) for j in range(i + 1, self.l)]
        self.fundamental = tuple(
            (self.rho[i] - self.rho[j]) // self.e for (i, j) in self.roots
        )
        self._root_index = {root: r for r, root in enumerate(self.roots)}
        # _fund_table[p][q]: floor of the fundamental alcove at e_p - e_q,
        # for p > q too (the alcove is open, so floor(-v) = -floor(v) - 1)
        self._fund_table = [[0] * self.l for _ in range(self.l)]
        for (i, j), f in zip(self.roots, self.fundamental):
            self._fund_table[i][j] = f
            self._fund_table[j][i] = -f - 1
        self._elems = {self.fundamental: AffineElement.identity(self.l)}
        # walls of the fundamental alcove as (i, j, level, reflection): the
        # candidate hyperplanes whose reflection changes exactly one floor;
        # a wall's index here is its type
        self._walls = []
        for r, (i, j) in enumerate(self.roots):
            for m in (self.fundamental[r], self.fundamental[r] + 1):
                s = reflection_element(self.l, self.e, Hyperplane(i + 1, j + 1, m))
                moved = self._elem_floors(s)
                if sum(f != f0 for f, f0 in zip(moved, self.fundamental)) == 1:
                    self._walls.append((i, j, m, s))
        self._wall_types = {w[:3]: t for t, w in enumerate(self._walls)}
        # scratch caches for other layers (alcove functions, path closures)
        self.caches = {}

    # -- basic values -------------------------------------------------

    def value(self, p, root):
        i, j = root
        return (p[i] + self.rho[i]) - (p[j] + self.rho[j])

    def classify(self, p):
        """Hyperplanes through p (empty list exactly when p is regular)."""
        out = []
        for (i, j) in self.roots:
            v = self.value(p, (i, j))
            if v % self.e == 0:
                out.append(Hyperplane(i + 1, j + 1, v // self.e))
        return out

    def is_regular(self, p):
        return not self.classify(p)

    def step_degree(self, p, q):
        """Degree of the unit step from p to q, summed over positive roots:
        stepping onto a wall from the far side costs -1, stepping off a
        wall towards the origin side gains +1, and every other step 0."""
        total = 0
        for root in self.roots:
            v0, v1 = self.value(p, root), self.value(q, root)
            on0 = v0 % self.e == 0
            if on0 == (v1 % self.e == 0):
                continue
            origin = self.rho[root[0]] - self.rho[root[1]]
            if on0:
                total += (v1 - v0 > 0) == (origin - v0 > 0)
            else:
                total -= (v0 - v1 > 0) != (origin - v1 > 0)
        return total

    def floors_of(self, p):
        out = []
        for root in self.roots:
            v = self.value(p, root)
            if v % self.e == 0:
                raise SingularPoint("point %r lies on a hyperplane" % (p,))
            out.append(v // self.e)
        return tuple(out)

    def _elem_floors(self, elem):
        """Floor vector of the alcove elem . fundamental, in integers.

        Every translation part is a multiple of e, and
        (w y)_a = y_{sigma^-1 a} + tau_a, so the floor at root (a, b) is
        the fundamental alcove's floor at (sigma^-1 a, sigma^-1 b) plus
        (tau_a - tau_b) / e.
        """
        inv = [0] * self.l
        for i, p in enumerate(elem.perm):
            inv[p] = i
        t = elem.trans
        table = self._fund_table
        return tuple(
            table[inv[a]][inv[b]] + (t[a] - t[b]) // self.e for (a, b) in self.roots
        )

    def _gallery_to(self, target):
        """Cross walls from the fundamental alcove towards the floor vector
        ``target``, returning (word of wall types, target).

        The walls of w . fundamental are the images under w of the walls of
        the fundamental alcove.  Each step crosses the first of them that
        separates the current alcove from the target, which lowers the
        separating count by exactly 1, so the gallery is minimal
        (Humphreys, Reflection Groups and Coxeter Groups, 4.5).
        """
        word = []
        cur = self.fundamental
        while cur != target:
            for t in range(len(self._walls)):
                h = self.wall(cur, t)
                r = self._root_index[h.i - 1, h.j - 1]
                step = 1 if h.m > cur[r] else -1
                if (target[r] - cur[r]) * step > 0:
                    break
            else:
                raise InternalMismatch(
                    "no wall separates alcove %r from %r" % (cur, target)
                )
            word.append(t)
            floors = list(cur)
            floors[r] += step
            nxt = tuple(floors)
            self._elems.setdefault(nxt, self._elems[cur].compose(self._walls[t][3]))
            cur = nxt
        return tuple(word), cur

    def wall(self, a, t):
        """The wall of type t of alcove a: the image under a's element of
        the fundamental alcove's wall t."""
        p, q, m, _ = self._walls[t]
        w = self._elems[a]
        i, j = w.perm[p], w.perm[q]
        m += (w.trans[i] - w.trans[j]) // self.e
        if i > j:
            i, j, m = j, i, -m
        return Hyperplane(i + 1, j + 1, m)

    def wall_type(self, a, h):
        """The type t with ``wall(a, t) == h``, or None when h does not
        bound the alcove a."""
        w = self._elems[a]
        i, j = h.i - 1, h.j - 1
        p, q = w.perm.index(i), w.perm.index(j)
        m = h.m - (w.trans[i] - w.trans[j]) // self.e
        if p > q:
            p, q, m = q, p, -m
        return self._wall_types.get((p, q, m))

    # -- alcoves ------------------------------------------------------

    def alcove_of(self, p):
        floors = self.floors_of(p)
        if floors not in self._elems:
            self._gallery_to(floors)
        return floors

    def length(self, a):
        return sum(abs(f - f0) for f, f0 in zip(a, self.fundamental))

    def point_length(self, p):
        """Hyperplanes strictly separating p from the fundamental alcove.

        Defined for singular points too (walls through p do not count),
        which is what the deterministic block-member order needs.  Per root
        this is the number of multiples of e strictly between the values
        of p and of the origin.
        """
        total = 0
        for root in self.roots:
            v = self.value(p, root)
            v0 = self.rho[root[0]] - self.rho[root[1]]
            lo, hi = (v, v0) if v < v0 else (v0, v)
            total += max(0, (hi - 1) // self.e - lo // self.e)
        return total

    def minimal_gallery(self, target):
        """A minimal gallery from the fundamental alcove to the alcove
        ``target``, as the word of the wall types it crosses."""
        return self._gallery_to(target)[0]

    def star(self, b, t):
        """Reflect alcove b = v . fundamental in its own wall of type t,
        giving v s_t . fundamental.  Memoised in ``caches["stars"]``; a call
        that raises stores nothing.
        """
        memo = self.caches.setdefault("stars", {})
        got = memo.get((b, t))
        if got is None:
            got = memo[b, t] = self._star(b, t)
        return got

    def _star(self, b, t):
        elem = self._elems[b].compose(self._walls[t][3])
        floors = self._elem_floors(elem)
        self._elems.setdefault(floors, elem)
        if abs(self.length(floors) - self.length(b)) != 1:
            raise InternalMismatch(
                "wall crossing from alcove %r to %r changed length by more than 1"
                % (b, floors)
            )
        return floors

    # -- orbits -------------------------------------------------------

    def _orbit_key(self, p):
        return tuple(sorted((p[i] + self.rho[i]) % self.e for i in range(self.l)))

    def orbit_points(self, p, n):
        """All points of the shifted W_e-orbit of p with nonnegative
        coordinates summing to n.  Membership is the exact criterion:
        equal multisets of (coordinate + rho) residues mod e.
        """
        want = self._orbit_key(p)
        out = []
        for q in compositions(n, self.l):
            if self._orbit_key(q) == want:
                out.append(q)
        return out


def compositions(n, l):
    """All tuples of l nonnegative integers summing to n, lexicographic."""
    if l == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, l - 1):
            yield (first,) + rest


_GEOMETRIES = {}


def geometry_for(params):
    """The shared Geometry of (l, e, kappa); n plays no part in it."""
    key = (params.l, params.e, params.kappa)
    geom = _GEOMETRIES.get(key)
    if geom is None:
        geom = _GEOMETRIES[key] = Geometry(params)
    return geom
