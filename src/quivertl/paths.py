"""
Lattice paths with the wall-crossing degree statistic.

A path of length n is a word in the component letters 1..l; step k moves
the current weight by the unit vector of its letter.  Each step picks up
a degree contribution per positive root: stepping onto a hyperplane from
the far side costs -1, stepping off towards the origin side gains +1, and
every other configuration contributes 0.

The central objects are the distinguished path of a one-column
multipartition (read off from its sorted loading), the closure of a path
under tail reflections at wall contacts, and the resulting graded path
counts, which compute graded dimensions of standard modules.

Closure paths correspond to semistandard tableaux by a degree-preserving
bijection: a tableau's entries, read in increasing order, spell the path's
component word.  Graded path counts are therefore
taken from ``tableaux.graded_tableau_counts``, one dynamic-programming pass
per column mu that serves every lam at once, instead of enumerating the
closure, which has 2^length(mu) paths.  The closure is enumerated only
where the paths themselves are wanted (``paths_between``, the ``paths``
and ``svg`` commands) and as the test oracle for the counts.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ZERO
from .tableaux import graded_tableau_counts


class NotOnHyperplane(ValueError):
    """Tail reflection requested at a point not on the given wall."""


class ClosureBudgetExceeded(RuntimeError):
    """Reflection closure grew past the configured budget."""


class NotAdmissible(ValueError):
    """The path fails the admissibility conditions."""


class NotAGallery(ValueError):
    """The alcove series of a path is not a minimal gallery."""


class PathWord:
    """An alcove path: a word in the letters 1..l with cached prefix points."""

    __slots__ = ("l", "steps", "points")

    def __init__(self, l, steps):
        self.l = l
        self.steps = tuple(steps)
        pts = [(0,) * l]
        cur = [0] * l
        for s in self.steps:
            if not 1 <= s <= l:
                raise ValueError("step letter %r out of range 1..%d" % (s, l))
            cur[s - 1] += 1
            pts.append(tuple(cur))
        self.points = tuple(pts)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return (
            isinstance(other, PathWord)
            and self.l == other.l
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.l, self.steps))

    def __repr__(self):
        return "PathWord(l=%d, steps=%r)" % (self.l, self.steps)

    def endpoint(self):
        return self.points[-1]


def step_degree(params, path, k):
    """Degree contribution of step k (1-based), summed over positive roots."""
    geom = geometry_for(params)
    p_prev = path.points[k - 1]
    p_next = path.points[k]
    total = 0
    for root in geom.roots:
        v0 = geom.value(p_prev, root)
        v1 = geom.value(p_next, root)
        on0 = v0 % geom.e == 0
        on1 = v1 % geom.e == 0
        if on0 == on1:
            continue
        origin_side = geom.value((0,) * geom.l, root)
        if on1:
            # stepping onto the wall at level v1: -1 from the far side
            if (v0 - v1 > 0) != (origin_side - v1 > 0):
                total -= 1
        else:
            # stepping off the wall at level v0: +1 towards the origin side
            if (v1 - v0 > 0) == (origin_side - v0 > 0):
                total += 1
    return total


def path_degree(params, path):
    return sum(step_degree(params, path, k) for k in range(1, len(path) + 1))


def reflect_tail(params, path, k, h):
    """Reflect the tail of ``path`` after position k in the wall h.

    Requires the k-th prefix point to lie on h; in type A the reflection
    swaps the letters h.i and h.j in the tail.
    """
    geom = geometry_for(params)
    point = path.points[k]
    if geom.value(point, (h.i - 1, h.j - 1)) != h.m * geom.e:
        raise NotOnHyperplane("point %r is not on %r" % (point, h))
    swap = {h.i: h.j, h.j: h.i}
    tail = tuple(swap.get(s, s) for s in path.steps[k:])
    return PathWord(path.l, path.steps[:k] + tail)


def distinguished_path(params, mu):
    """The distinguished path of a one-column multipartition mu: its
    loading values (m-1) + l*(r-1) sorted increasingly, reading off the
    component of each.
    """
    entries = []
    for m in range(1, params.l + 1):
        for r in range(1, mu[m - 1] + 1):
            entries.append(((m - 1) + params.l * (r - 1), m))
    entries.sort()
    return PathWord(params.l, tuple(m for _, m in entries))


def is_admissible(params, path):
    """Every proper prefix has degree 0 and any two walls through a common
    prefix point touch disjoint coordinate pairs."""
    geom = geometry_for(params)
    running = 0
    for k in range(1, len(path) + 1):
        running += step_degree(params, path, k)
        if k < len(path) and running != 0:
            return False
    for point in path.points:
        walls = geom.classify(point)
        for a in range(len(walls)):
            for b in range(a + 1, len(walls)):
                if {walls[a].i, walls[a].j} & {walls[b].i, walls[b].j}:
                    return False
    return True


def reflection_closure(params, path, budget=2 ** 20):
    """Closure of ``path`` under all tail reflections at wall contacts."""
    geom = geometry_for(params)
    seen = {path.steps: path}
    work = [path]
    while work:
        cur = work.pop()
        for k in range(1, len(cur)):
            for h in geom.classify(cur.points[k]):
                new = reflect_tail(params, cur, k, h)
                if new.steps not in seen:
                    if len(seen) >= budget:
                        raise ClosureBudgetExceeded(
                            "reflection closure exceeded budget %d" % budget
                        )
                    seen[new.steps] = new
                    work.append(new)
    return sorted(seen.values(), key=lambda p: p.steps)


def paths_between(params, lam, mu, budget=2 ** 20):
    """All closure paths of the distinguished path of mu ending at lam,
    lexicographically sorted, each with its degree."""
    lam = tuple(lam)
    closure = _closure_cached(params, tuple(mu), budget)
    return [(p, d) for p, d in closure if p.endpoint() == lam]


def _closure_cached(params, mu, budget):
    geom = geometry_for(params)
    cache = geom.caches.setdefault("closures", {})
    got = cache.get(mu)
    if got is None:
        # only complete closures are cached; a budget overrun raises first
        closure = reflection_closure(params, distinguished_path(params, mu), budget)
        got = [(p, path_degree(params, p)) for p in closure]
        cache[mu] = got
    elif len(got) > budget:
        # a cached closure over this call's budget fails as it would uncached
        raise ClosureBudgetExceeded("reflection closure exceeded budget %d" % budget)
    return got


def graded_path_count(params, lam, mu):
    """The graded count of paths from the distinguished path of mu to lam:
    sum of t^(degree) over paths_between(lam, mu), read from the tableau
    counts of mu, which are computed once per mu."""
    geom = geometry_for(params)
    cache = geom.caches.setdefault("path_counts", {})
    mu = tuple(mu)
    table = cache.get(mu)
    if table is None:
        table = cache[mu] = graded_tableau_counts(params, mu)
    return table.get(tuple(lam), ZERO)


def alcove_series(params, path):
    """The gallery traced by an admissible path: starting at the fundamental
    alcove, every step onto a new wall crosses that wall.  Returned as the
    word of the wall types crossed.

    When a step leaves one wall and lands on an orthogonal one, the regular
    prefix points skip an alcove; the crossed walls still determine the
    gallery, with simultaneous contacts ordered by root.  Validated to be
    a minimal gallery with lengths 0, 1, ..., k.
    """
    geom = geometry_for(params)
    if not is_admissible(params, path):
        raise NotAdmissible("path %r is not admissible" % (path.steps,))
    word = []
    cur = geom.fundamental
    for k in range(1, len(path) + 1):
        onto = [
            h
            for h in geom.classify(path.points[k])
            if geom.value(path.points[k - 1], (h.i - 1, h.j - 1)) != h.m * geom.e
        ]
        for h in sorted(onto, key=lambda h: (h.i, h.j)):
            t = geom.wall_type(cur, h)
            if t is None:
                raise NotAGallery("hyperplane %r does not bound alcove %r" % (h, cur))
            nxt = geom.star(cur, t)
            if geom.length(nxt) != geom.length(cur) + 1:
                raise NotAGallery(
                    "crossing %r does not move away from the origin" % (h,)
                )
            word.append(t)
            cur = nxt
    end = path.endpoint()
    if geom.is_regular(end) and cur != geom.alcove_of(end):
        raise NotAGallery("gallery does not end at the endpoint's alcove")
    return tuple(word)
