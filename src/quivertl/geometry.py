"""
Alcove geometry for the affine symmetric group acting on l-part weights.

Weights live in Z^l and the affine Weyl group W_e (type affine A_{l-1},
generated by the reflections in the hyperplanes <x + rho, e_i - e_j> = m*e)
acts through the rho-shifted action w.x = w(x + rho) - rho, where
rho_i = e - kappa_i.  Alcoves are the connected components of the
complement of the hyperplane arrangement; the fundamental alcove is the
one containing the origin.

``Geometry.values(p)``, the one root-value formula, gives the value
<p + rho, e_i - e_j> of each positive root e_i - e_j (i < j) in root
order: its value at the origin (``origin_values``) plus p_i - p_j.  An
alcove is its floor vector a, the integer parts of its points' root
values over e.  A wall is the 0-based triple (i, j, m), i < j, of the
hyperplane <x + rho, e_i - e_j> = m * e; ``Geometry.classify`` returns
the walls through a point as such triples.

The floors fix the walls (J.-Y. Shi, Alcoves corresponding to an affine
Weyl group, J. London Math. Soc. 1987).  With y = (x + rho) / e, let
fl(i, j) be the integer part of y_i - y_j: a[r(i, j)] for i < j and
-a[r(j, i)] - 1 for i > j.  Put F_0 = 0 and F_j = fl(j, 0).  Ordering
the indices by decreasing fractional part of y_j - y_0, k comes before j
exactly when fl(k, j) == F_k - F_j, and 0 comes last; call the order
s(1), ..., s(l).  For k = 1 .. l-1 the wall opposite vertex k is the root
(s(k), s(k+1)) at level F_s(k) - F_s(k+1), and the wall opposite vertex 0
is (s(1), s(l)) at level F_s(1) - F_s(l) + 1; a root (i, j) with i > j is
written (j, i) at the negated level.  Vertex k has colour (sum F + k)
mod l, and walls opposite vertices of one colour have one type, fixed on
the fundamental alcove: there a wall's type is its index in sorted triple
order, ``Geometry._walls``.  For l = 1 there are no walls.
``Geometry.walls`` memoises the walls of each alcove it is asked for.  A
gallery from the fundamental alcove is the word of the wall types it
crosses.

The wall-crossing ("star") operation takes b = v . fundamental to
v s_t . fundamental, the reflection of b in its wall h of type t: the
floor of h's root moves to the other side of h (m - 1 <-> m).  Minimal
galleries are built by crossing, the same way, the first wall of the
current alcove on the side of the target.

``Geometry.step_degree``, the degree of a unit step of a path, is the one
step degree of the package; the path-count DP caches it per move.  It
sums ``Geometry.root_step_degree``, the one per-root rule, over the
positive roots.  A unit step in coordinate c changes only the values of
the l - 1 roots that touch c, by +1 or -1, so ``Geometry.__init__`` keeps
those roots per coordinate (``touches``, in root order, with their
signs); ``alcove_series`` walks a path by updating the values from
``origin_values`` on and applies the per-root rule only where a value
lands on or leaves a multiple of e.

A shifted W_e-orbit is one multiset of the l residues (coordinate + rho)
mod e, ``Geometry._orbit_key``, and ``Geometry.orbit_points`` builds its
points of n boxes from the multiset directly.  A point lies on a wall
exactly when two of its residues are equal, since a root value is their
difference mod e, so regularity is a property of the orbit.
"""

from __future__ import annotations

from operator import sub


class InternalMismatch(RuntimeError):
    """A result failed one of the program's own consistency checks, or two
    independent computation routes disagreed."""


class SingularPoint(ValueError):
    """A weight on a hyperplane was passed where a regular one is required."""


class Geometry:
    """Alcove-geometry context for one parameter set."""

    def __init__(self, params):
        self.l = params.l
        self.e = params.e
        self.rho = params.rho
        self.roots = [(i, j) for i in range(self.l) for j in range(i + 1, self.l)]
        # each root's (value at the origin, i, j) and value at the origin,
        # and for each coordinate the (root index, sign, i, j) of the roots
        # it touches, in root order
        self._value_terms = [(self.rho[i] - self.rho[j], i, j) for i, j in self.roots]
        self.origin_values = tuple(v0 for v0, _, _ in self._value_terms)
        self.touches = tuple(
            tuple(
                (r, 1 if c == i else -1, i, j)
                for r, (i, j) in enumerate(self.roots)
                if c in (i, j)
            )
            for c in range(self.l)
        )
        self.fundamental = tuple(v // self.e for v in self.origin_values)
        self._root_index = {root: r for r, root in enumerate(self.roots)}
        # the fundamental walls in sorted order, a wall's index being its
        # type, and the type of each vertex colour
        coloured = sorted(self._coloured_walls(self.fundamental))
        self._walls = [wall for wall, _ in coloured]
        self._colour_type = {colour: t for t, (_, colour) in enumerate(coloured)}
        # the walls of every alcove asked for, by type
        self._wall_memo = {self.fundamental: tuple(self._walls)}
        # the memos of the other layers, each made on first use by the
        # module that owns it: transitions (tableaux), values (laurent),
        # classes, galleries and closures (paths), n_functions (soergel)
        # and oracle_rows (decomposition)
        self.caches = {}

    # -- basic values -------------------------------------------------

    def values(self, p):
        """The value <p + rho, e_i - e_j> of every positive root, in root
        order."""
        # a loop: on lists this short a comprehension's call costs more
        out = []
        for v0, i, j in self._value_terms:
            out.append(v0 + p[i] - p[j])
        return out

    def classify(self, p):
        """The walls through p in root order, as the (i, j, m) triples of
        ``walls`` (empty exactly when p is regular)."""
        e = self.e
        pairs = zip(self.roots, self.values(p))
        return [(i, j, v // e) for (i, j), v in pairs if v % e == 0]

    def root_step_degree(self, r, v0, v1):
        """Degree of a unit step at the root of index r, whose value moves
        from v0 to v1: stepping onto a wall from the far side of the origin
        costs -1, stepping off a wall towards the origin side gains +1, and
        every other step 0."""
        e = self.e
        on0 = v0 % e == 0
        if on0 == (v1 % e == 0):
            return 0
        origin = self.origin_values[r]
        if on0:
            return int((v1 > v0) == (origin > v0))
        return -((v0 > v1) != (origin > v1))

    def step_degree(self, p, q):
        """Degree of the unit step from p to q: ``root_step_degree``
        summed over the positive roots."""
        rs = range(len(self.roots))
        return sum(map(self.root_step_degree, rs, self.values(p), self.values(q)))

    # -- walls --------------------------------------------------------

    def _coloured_walls(self, a):
        """The walls of alcove a as (wall, colour of the opposite vertex)
        pairs, by the formula of the module docstring."""
        l, index = self.l, self._root_index
        if l == 1:
            return []

        def fl(i, j):
            return a[index[i, j]] if i < j else -a[index[j, i]] - 1

        floors = [0] + [fl(j, 0) for j in range(1, l)]
        order = [0] * l
        for k in range(l):
            # k's place in the order is the number of indices before it
            place = sum(fl(j, k) == floors[j] - floors[k] for j in range(l) if j != k)
            order[place] = k
        out = []
        total = sum(floors)
        for k in range(l):
            # k = 0 wraps round: (s(l), s(1)) at F_s(l) - F_s(1) - 1
            i, j = order[k - 1], order[k]
            m = floors[i] - floors[j] - (k == 0)
            out.append(((i, j, m) if i < j else (j, i, -m), (total + k) % l))
        return out

    def walls(self, a):
        """The walls of alcove a by type, memoised per alcove."""
        got = self._wall_memo.get(a)
        if got is None:
            got = [None] * len(self._walls)
            for wall, colour in self._coloured_walls(a):
                got[self._colour_type[colour]] = wall
            got = self._wall_memo[a] = tuple(got)
        return got

    def wall_type(self, a, h):
        """The type of h among the walls of alcove a, or None when h does
        not bound a."""
        walls = self.walls(a)
        return walls.index(h) if h in walls else None

    # -- alcoves ------------------------------------------------------

    def alcove_of(self, p):
        e = self.e
        out = []
        for v in self.values(p):
            if v % e == 0:
                raise SingularPoint("point %r lies on a hyperplane" % (p,))
            out.append(v // e)
        return tuple(out)

    def length(self, a):
        return sum(map(abs, map(sub, a, self.fundamental)))

    def point_length(self, p):
        """Hyperplanes strictly separating p from the fundamental alcove.

        Defined for singular points too (walls through p do not count),
        which is what the deterministic block-member order needs.  Per root
        this is the number of multiples of e strictly between the values
        of p and of the origin.
        """
        e = self.e
        total = 0
        for v, v0 in zip(self.values(p), self.origin_values):
            lo, hi = (v, v0) if v < v0 else (v0, v)
            total += max(0, (hi - 1) // e - lo // e)
        return total

    def minimal_gallery(self, target):
        """A minimal gallery from the fundamental alcove to the alcove
        ``target``, as the word of the wall types it crosses.

        Each step crosses the first wall of the current alcove on the side
        of the target, which lowers the floor distance to the target by
        exactly 1, so the gallery is minimal (Humphreys, Reflection Groups
        and Coxeter Groups, 4.5).  Nothing in the package calls it; the tests
        and the benchmark's tracer name it.
        """
        word = []
        cur = self.fundamental
        while cur != target:
            walls = self.walls(cur)
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
            cur = self.star(cur, t)
        return tuple(word)

    def star(self, b, t):
        """Reflect alcove b = v . fundamental in its own wall of type t,
        giving v s_t . fundamental."""
        walls = self.walls(b)
        i, j, m = walls[t]
        r = self._root_index[i, j]
        if m not in (b[r], b[r] + 1):
            raise InternalMismatch(
                "wall %r of type %d does not bound alcove %r" % (walls[t], t, b)
            )
        return b[:r] + (2 * m - 1 - b[r],) + b[r + 1:]

    # -- orbits -------------------------------------------------------

    def _orbit_key(self, p):
        """The orbit of p: its sorted (coordinate + rho) residues mod e."""
        return tuple(sorted((p[i] + self.rho[i]) % self.e for i in range(self.l)))

    def orbit_points(self, key, n):
        """All points with nonnegative coordinates summing to n in the
        shifted W_e-orbit whose ``_orbit_key`` is ``key``, in lexicographic
        order.

        The points are built coordinate by coordinate: each coordinate
        takes one of the residues of ``key`` not yet used, its value runs
        from the least representative upward in steps of e, and the last
        coordinate takes what is left of n.
        """
        e, rho, last = self.e, self.rho, self.l - 1
        unused = {r: key.count(r) for r in key}
        # per coordinate, the residues as (least representative, residue),
        # so that within each window of e values the values come in
        # increasing order; ``extend`` skips the ones used up
        starts = [sorted(((r - rho[c]) % e, r) for r in unused) for c in range(last)]
        point = [0] * self.l
        out = []

        def extend(c, rest):
            if c == last:
                if unused.get((rest + rho[c]) % e):
                    point[c] = rest
                    out.append(tuple(point))
                return
            for base in range(0, rest + 1, e):
                for start, r in starts[c]:
                    v = base + start
                    if v > rest:
                        break
                    if not unused[r]:
                        continue
                    unused[r] -= 1
                    point[c] = v
                    extend(c + 1, rest - v)
                    unused[r] += 1

        extend(0, n)
        return out


_GEOMETRIES = {}


def geometry_for(params):
    """The shared Geometry of (l, e, kappa); n plays no part in it."""
    key = (params.l, params.e, params.kappa)
    geom = _GEOMETRIES.get(key)
    if geom is None:
        geom = _GEOMETRIES[key] = Geometry(params)
    return geom
