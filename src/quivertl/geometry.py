"""
Alcove geometry for the affine symmetric group acting on l-part weights.

Weights live in Z^l and the affine Weyl group W_e (type affine A_{l-1},
generated by the reflections in the hyperplanes <x + rho, e_i - e_j> = m*e)
acts through the rho-shifted action w.x = w(x + rho) - rho, where
rho_i = e - kappa_i.  Alcoves are the connected components of the
complement of the hyperplane arrangement; the fundamental alcove is the
one containing the origin.

An alcove is its floor vector: for each positive root e_i - e_j (i < j)
the integer part of <x + rho, e_i - e_j> / e.  Each alcove met so far also
carries its l walls by type in ``Geometry._alcove_walls``, as 0-based
triples (i, j, m) for the hyperplane <x + rho, e_i - e_j> = m * e.  That
triple is the package's one model of a wall: ``Geometry.classify`` returns
the walls through a point as the same triples.  The walls of the
fundamental alcove, ``Geometry._walls``, are the candidate hyperplanes
whose reflection of the origin changes exactly one floor; the index t of a
wall there is its type, and a gallery from the fundamental alcove is the
word of the wall types it crosses.

The wall-crossing ("star") operation takes b = v . fundamental to
v s_t . fundamental, the reflection of b in its wall h of type t: the
floor of h's root moves to the other side of h (m - 1 <-> m), and since
s_h = v s_t v^-1 the walls of the new alcove are b's walls reflected in h,
type by type.  Minimal galleries are built by crossing, the same way, the
first wall of the current alcove on the side of the target.

``Geometry.step_degree``, the degree of a unit step of a path, is the one
step degree of the package; the path-count DP caches it per move.

``Geometry.star`` is memoised in ``geom.caches["stars"]`` under ``(b, t)``.
Blocks at n and n + l are shifted copies with the same alcoves and
crossings, so most calls within a process are repeats.
"""

from __future__ import annotations


class InternalMismatch(RuntimeError):
    """A result failed one of the program's own consistency checks, or two
    independent computation routes disagreed."""


class SingularPoint(ValueError):
    """A weight on a hyperplane was passed where a regular one is required."""


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
        # walls of the fundamental alcove as 0-based (i, j, level): the
        # candidate hyperplanes whose reflection of the origin changes
        # exactly one floor; a wall's index here is its type
        self._walls = []
        for r, (i, j) in enumerate(self.roots):
            for m in (self.fundamental[r], self.fundamental[r] + 1):
                # the origin reflected in the hyperplane (i, j, m)
                v = self.rho[i] - self.rho[j] - m * self.e
                image = [0] * self.l
                image[i], image[j] = -v, v
                moved = self.floors_of(image)
                if sum(f != f0 for f, f0 in zip(moved, self.fundamental)) == 1:
                    self._walls.append((i, j, m))
        # the walls of every alcove met so far, by type
        self._alcove_walls = {self.fundamental: tuple(self._walls)}
        # scratch caches for other layers (alcove functions, path closures)
        self.caches = {}

    # -- basic values -------------------------------------------------

    def value(self, p, root):
        i, j = root
        return (p[i] + self.rho[i]) - (p[j] + self.rho[j])

    def classify(self, p):
        """The walls through p in root order, as the (i, j, m) triples that
        alcoves carry (empty exactly when p is regular)."""
        out = []
        for (i, j) in self.roots:
            v = self.value(p, (i, j))
            if v % self.e == 0:
                out.append((i, j, v // self.e))
        return out

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

    def _gallery_to(self, target):
        """Cross walls from the fundamental alcove to the floor vector
        ``target``, returning the word of wall types crossed.

        Each step crosses the first wall of the current alcove on the side
        of the target, which lowers the floor distance to the target by
        exactly 1, so the gallery is minimal (Humphreys, Reflection Groups
        and Coxeter Groups, 4.5).  The crossing is ``star``'s, unmemoised:
        whether a gallery is walked at all depends on which alcoves earlier
        calls met, and the counted ``star`` calls must not.
        """
        word = []
        cur = self.fundamental
        while cur != target:
            walls = self._alcove_walls[cur]
            for t in range(len(self._walls)):
                i, j, m = walls[t]
                r = self._root_index[i, j]
                d = target[r] - cur[r]
                if d and (d > 0) == (m > cur[r]):
                    break
            else:
                raise InternalMismatch(
                    "no wall separates alcove %r from %r" % (cur, target)
                )
            word.append(t)
            cur = self._star(cur, t)
        return tuple(word)

    def wall_type(self, a, h):
        """The type of h among the walls of alcove a, or None when h does
        not bound a."""
        walls = self._alcove_walls[a]
        return walls.index(h) if h in walls else None

    # -- alcoves ------------------------------------------------------

    def alcove_of(self, p):
        floors = self.floors_of(p)
        if floors not in self._alcove_walls:
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
        ``target``, as the word of the wall types it crosses; see
        ``_gallery_to``."""
        return self._gallery_to(target)

    def star(self, b, t):
        """Reflect alcove b = v . fundamental in its own wall of type t,
        giving v s_t . fundamental, whose walls it stores.  Memoised in
        ``caches["stars"]``; a call that raises stores nothing.
        """
        memo = self.caches.setdefault("stars", {})
        got = memo.get((b, t))
        if got is None:
            got = memo[b, t] = self._star(b, t)
        return got

    def _star(self, b, t):
        walls = self._alcove_walls[b]
        i, j, m = walls[t]
        r = self._root_index[i, j]
        if m not in (b[r], b[r] + 1):
            raise InternalMismatch(
                "wall %r of type %d does not bound alcove %r" % (walls[t], t, b)
            )
        floors = b[:r] + (2 * m - 1 - b[r],) + b[r + 1:]
        if abs(self.length(floors) - self.length(b)) != 1:
            raise InternalMismatch(
                "wall crossing from alcove %r to %r changed length by more than 1"
                % (b, floors)
            )
        if floors not in self._alcove_walls:
            self._alcove_walls[floors] = tuple(
                _reflect_wall(w, i, j, m) for w in walls
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


def _reflect_wall(wall, i, j, m):
    """The image of the wall (p, q, k) under the reflection in the wall
    (i, j, m): swap i and j, and shift the level by the reflection's
    translation, +m * e at i and -m * e at j."""
    p, q, k = wall
    swap = {i: j, j: i}
    shift = {i: m, j: -m}
    k -= shift.get(p, 0) - shift.get(q, 0)
    p, q = swap.get(p, p), swap.get(q, q)
    return (p, q, k) if p < q else (q, p, -k)


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
