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
floor of h's root moves to the other side of h (m - 1 <-> m).  Since it
moves that one floor, ``Geometry.crossing`` also tells in O(1) which side
of the pair is longer, with no length summed: for the wall (i, j, m) at
root r the partner's floor is 2m - 1 - b_r, and the partner is longer
exactly when |2m - 1 - b_r - f0_r| > |b_r - f0_r|, f0 being the
fundamental alcove's floors.  The wall-crossing recursions of
``soergel`` take the side of every crossing from it: m's and n's
two-term crossing, the walk down to a shorter neighbour, and the
graded simple characters e, which are carried along a gallery with m by
the Kazhdan-Lusztig multiplication formula (W. Soergel, Represent.
Theory 1 (1997)) instead of being solved from m = sum e(nu) * n_nu; the
solve's checks moved there (each new e bar-symmetric, each run's n of
e's support inside m's support).

Minimal galleries are built by crossing, the same way, the first wall of
the current alcove on the side of the target.

``Geometry.step_degree``, the degree of a unit step of a path, is the one
step degree of the package; the path-count DP caches it per move.  It
sums ``Geometry.root_step_degree``, the one per-root rule, over the
positive roots.  A unit step in coordinate c changes only the values of
the l - 1 roots that touch c, by +1 or -1, so ``Geometry.__init__`` keeps
those roots per coordinate, once (``components``: c, kappa_c, and each
root's index, sign, value at the origin and pair, in root order).  The
walk of ``paths`` updates the values from ``origin_values`` on, and the
path-count DP of ``tableaux`` computes them from the heights; both apply
the per-root rule only where a value lands on or leaves a multiple of e.
``alcove_of`` takes a regular point's floors in one loop over the roots,
as ``point_length`` does.

A shifted W_e-orbit is one multiset of the l residues (coordinate + rho)
mod e, ``Geometry._orbit_key``.  ``Geometry.orbit_points``, which
``decomposition.block_of`` calls for its member's orbit, builds the
orbit's points of n boxes from the multiset directly, in one pass of the
module-level recursion ``_orbit_tail``: each coordinate in turn takes a
residue not yet used, at its values (residue - rho_c) mod e upward in
steps of e, the last coordinate takes what is left of n, and the points
are sorted once.  No closure takes part, so building an orbit leaves no
reference cycle for the cyclic garbage collector.  A point lies on a wall
exactly when two of its residues are equal, since a root value is their
difference mod e, so regularity is a property of the orbit.
``Geometry.point_length`` counts the walls separating a point from the
fundamental alcove in one loop over the roots, from each root's value and
floor at the origin.
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
        # each root's (value at the origin, i, j, floor of that value over
        # e) and value at the origin
        rho, e = self.rho, self.e
        self._value_terms = [
            (rho[i] - rho[j], i, j, (rho[i] - rho[j]) // e) for i, j in self.roots
        ]
        self.origin_values = tuple(v0 for v0, _, _, _ in self._value_terms)
        # the constants of each coordinate c, read by the path-count DP
        # (``tableaux._moves``) and the walk (``paths._walk``): c, kappa_c,
        # and the (root index, sign, value at the origin, i, j) of each
        # root that c touches, in root order
        self.components = tuple(
            (
                c,
                params.kappa[c],
                tuple(
                    (r, 1 if c == i else -1, v0, i, j)
                    for r, (v0, i, j, _) in enumerate(self._value_terms)
                    if c in (i, j)
                ),
            )
            for c in range(self.l)
        )
        self.fundamental = tuple(f0 for _, _, _, f0 in self._value_terms)
        self._root_index = {root: r for r, root in enumerate(self.roots)}
        # the fundamental walls in sorted order, a wall's index being its
        # type, and the type of each vertex colour
        coloured = sorted(self._coloured_walls(self.fundamental))
        self._walls = [wall for wall, _ in coloured]
        self._colour_type = {colour: t for t, (_, colour) in enumerate(coloured)}
        # the walls of every alcove asked for, by type
        self._wall_memo = {self.fundamental: tuple(self._walls)}
        # the seven memos of the other layers, each made on first use by
        # the module that owns it: transitions (tableaux; a list of e
        # dicts, one per residue, from heights to moves), values
        # (laurent), classes and galleries (paths), n_functions (soergel),
        # and oracle_rows and oracle_columns (decomposition)
        self.caches = {}

    # -- basic values -------------------------------------------------

    def values(self, p):
        """The value <p + rho, e_i - e_j> of every positive root, in root
        order."""
        # a loop: on lists this short a comprehension's call costs more
        out = []
        for v0, i, j, _ in self._value_terms:
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
        """The alcove of the regular point p: the floors of its root values
        over e, taken in one loop over the roots."""
        e = self.e
        out = []
        for v0, i, j, _ in self._value_terms:
            v = v0 + p[i] - p[j]
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
        of p and of the origin.  The origin is regular, so its value v0 is
        no multiple of e, and with f0 = v0 // e those multiples are k * e
        for f0 < k <= (v - 1) // e when p's value v is above v0, and for
        v // e < k <= f0 otherwise.
        """
        e = self.e
        total = 0
        for v0, i, j, f0 in self._value_terms:
            v = v0 + p[i] - p[j]
            if v > v0:
                total += (v - 1) // e - f0
            else:
                total += f0 - v // e
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
        return self.crossing(b, t)[0]

    def crossing(self, b, t):
        """(star(b, t), whether it is longer than b), the side read in
        O(1): the star moves one floor, b_r to b'_r = 2m - 1 - b_r for the
        wall (i, j, m) of type t at root r, and a length is a sum over the
        roots of |a_r - f0_r|, so the partner is longer exactly when
        |b'_r - f0_r| > |b_r - f0_r|."""
        walls = self.walls(b)
        i, j, m = walls[t]
        r = self._root_index[i, j]
        old = b[r]
        if m != old and m != old + 1:
            raise InternalMismatch(
                "wall %r of type %d does not bound alcove %r" % (walls[t], t, b)
            )
        new = 2 * m - 1 - old
        f0 = self.fundamental[r]
        return b[:r] + (new,) + b[r + 1:], abs(new - f0) > abs(old - f0)

    # -- orbits -------------------------------------------------------

    def _orbit_key(self, p):
        """The orbit of p: its sorted (coordinate + rho) residues mod e."""
        e = self.e
        return tuple(sorted([(x + r) % e for x, r in zip(p, self.rho)]))

    def orbit_points(self, key, n):
        """All points with nonnegative coordinates summing to n in the
        shifted W_e-orbit whose ``_orbit_key`` is ``key``, in lexicographic
        order.

        The points exist only when n + sum(rho) and sum(key) agree mod e,
        since a point's residues are its coordinates plus rho.  Then
        ``_orbit_tail`` builds them by giving each coordinate in turn one of
        the residues of ``key`` not yet used, and the list is sorted once.
        """
        e, rho = self.e, self.rho
        if (n + sum(rho) - sum(key)) % e:
            return []
        if len(key) == 1:
            return [(n,)]
        out = []
        _orbit_tail(out, (), n, key, rho, e)
        out.sort()
        return out


def _orbit_tail(out, head, rest, key, rho, e):
    """Append to ``out`` every point head + tail in which tail has
    nonnegative coordinates summing to ``rest`` and takes the residues of
    ``key`` (sorted, at least two) at the coordinates after head.

    Coordinate c = len(head) takes each distinct residue r of key in turn,
    at the values (r - rho_c) mod e upward in steps of e, up to rest.  With
    two residues left the last coordinate takes rest - v, and its residue
    is the other one with no test: ``orbit_points`` checks once that n plus
    the sum of rho agrees with the sum of key mod e, and each step keeps
    that agreement for what is left.  A module-level recursion, not a
    closure, so that a call leaves no reference cycle.
    """
    rc = rho[len(head)]
    if len(key) == 2:
        a, b = key
        for v in range((a - rc) % e, rest + 1, e):
            out.append(head + (v, rest - v))
        if b != a:
            for v in range((b - rc) % e, rest + 1, e):
                out.append(head + (v, rest - v))
        return
    prev = None
    for i, r in enumerate(key):
        if r != prev:
            prev = r
            others = key[:i] + key[i + 1:]
            for v in range((r - rc) % e, rest + 1, e):
                _orbit_tail(out, head + (v,), rest - v, others, rho, e)


_GEOMETRIES = {}


def geometry_for(params):
    """The shared Geometry of (l, e, kappa); n plays no part in it."""
    key = (params.l, params.e, params.kappa)
    geom = _GEOMETRIES.get(key)
    if geom is None:
        geom = _GEOMETRIES[key] = Geometry(params)
    return geom
