"""
Lattice paths with the wall-crossing degree statistic.

A path of length n is a word in the component letters 1..l; step k moves
the current weight by the unit vector of its letter.  A path's degree is
the sum of its step degrees, ``Geometry.step_degree``, which the
path-count DP caches per move.

The central objects are the distinguished path of a one-column
multipartition (read off from its sorted loading), the closure of a path
under tail reflections at wall contacts, and the resulting graded path
counts, which compute graded dimensions of standard modules.

Closure paths correspond to semistandard tableaux by a degree-preserving
bijection: a tableau's entries, read in increasing order, spell the path's
component word.  Graded path counts are therefore taken from
``tableaux.graded_tableau_counts``, one dynamic-programming pass per column
mu that serves every lam at once, instead of enumerating the closure,
which has 2^length(mu) paths.  The closure is enumerated only where the
paths themselves are wanted (``paths_between``, the ``paths`` and ``svg``
commands) and as the test oracle for the counts.

The count tables are memoised per translation class in
``geom.caches["count_tables"]``: mu and mu - k*(1, ..., 1) have the same
table up to that shift of the shapes (the translation lemma of
``tableaux``), so the table of the class representative mu0 serves every
n, and the DP of a new class continues from the stored table of the
longest prefix of its loading (the prefix lemma of ``tableaux``).  The
column memo ``geom.caches["columns"]`` keeps each column mu that was read
as its class table shifted by +k*(1, ..., 1) (the table itself when
k = 0), so that a count read finds its column with one lookup.  Like the
``transitions`` and ``runs`` memos both live as long as the ``Geometry``,
and nothing is evicted.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ZERO
from .tableaux import graded_tableau_counts, loading, translation_class


# the default cap on the size of a reflection closure
CLOSURE_BUDGET = 2 ** 20


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

    def endpoint(self):
        return self.points[-1]


def path_degree(params, path):
    geom = geometry_for(params)
    return sum(geom.step_degree(p, q) for p, q in zip(path.points, path.points[1:]))


def distinguished_path(params, mu):
    """The distinguished path of a one-column multipartition mu: the
    component of each of its loading values, in increasing order.
    """
    return PathWord(params.l, [m for _, _, m in loading(params, mu)])


def reflection_closure(params, path, budget=CLOSURE_BUDGET):
    """Closure of ``path`` under all tail reflections at wall contacts,
    of at most ``budget`` paths.  In type A the reflection of the tail
    after a point on the wall (i, j, m) swaps the letters i + 1 and j + 1
    in the tail."""
    if budget < 1:
        raise ClosureBudgetExceeded("reflection closure exceeded budget %d" % budget)
    geom = geometry_for(params)
    seen = {path.steps: path}
    work = [path]
    while work:
        cur = work.pop()
        for k in range(1, len(cur)):
            for i, j, _ in geom.classify(cur.points[k]):
                swap = {i + 1: j + 1, j + 1: i + 1}
                tail = tuple(swap.get(s, s) for s in cur.steps[k:])
                new = PathWord(cur.l, cur.steps[:k] + tail)
                if new.steps not in seen:
                    if len(seen) >= budget:
                        raise ClosureBudgetExceeded(
                            "reflection closure exceeded budget %d" % budget
                        )
                    seen[new.steps] = new
                    work.append(new)
    return sorted(seen.values(), key=lambda p: p.steps)


def paths_between(params, lam, mu, budget=CLOSURE_BUDGET):
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
    sum of t^(degree) over paths_between(lam, mu), read from mu's column in
    ``caches["columns"]`` (lam and mu are tuples).  A shape that is in no
    table has count 0."""
    try:
        column = geometry_for(params).caches["columns"][mu]
    except KeyError:
        column = _column(params, mu)
    return column.get(lam, ZERO)


def _column(params, mu):
    """mu's column of counts, memoised in ``caches["columns"]``: the table
    of the class representative mu0 = mu - k*(1, ..., 1), k = min(mu),
    from ``caches["count_tables"]``, with every shape shifted by
    +k*(1, ..., 1)."""
    caches = geometry_for(params).caches
    tables = caches.setdefault("count_tables", {})
    base, k = translation_class(mu)
    table = tables.get(base)
    if table is None:
        table = tables[base] = graded_tableau_counts(params, base)
    if k:
        table = {tuple([x + k for x in lam]): poly for lam, poly in table.items()}
    caches.setdefault("columns", {})[tuple(mu)] = table
    return table


def alcove_series(params, path):
    """The gallery traced by an admissible path: starting at the fundamental
    alcove, every step onto a new wall crosses that wall.  Returned as the
    word of the wall types crossed.

    Admissible means that every proper prefix has degree 0 and that any
    two walls through a common point touch disjoint coordinate pairs; one
    walk over the steps checks this and collects the walls each step
    lands on (in root order) before any is crossed.  The walk keeps the
    root values of the current point; a step updates the l - 1 values its
    coordinate touches (``Geometry.touches``), and only a root that lands
    on or leaves a wall adds to the degree or changes the walls.  A step
    that leaves one wall for an orthogonal one skips an alcove, which the
    crossings still insert.  Validated to be a minimal gallery of lengths
    0, 1, ..., k.

    Two walls through the new point share a coordinate exactly when the
    step landed on two or more walls, so the walk checks only that count.
    A step moves one coordinate i and leaves every wall through i that
    the old point was on, so the walls through i at the new point are the
    ones just landed on, and any two of those share i.  A landed wall
    (i, j) next to a wall (j, k) that the point was already on forces
    (i, k) to land in the same step, since root values add.  Two walls
    that both miss i were both on the old point, which passed the check.
    The origin is regular (``Params`` keeps the residues distinct), and
    the endpoint is regular when no final root value is a multiple of e.
    """
    geom = geometry_for(params)
    e = geom.e
    values = list(geom.origin_values)
    landed = []
    running = 0
    last = len(path)
    for k, s in enumerate(path.steps, 1):
        new = len(landed)
        for r, sign, i, j in geom.touches[s - 1]:
            v0 = values[r]
            v1 = values[r] = v0 + sign
            if v0 % e == 0:
                running += geom.root_step_degree(r, v0, v1)
            elif v1 % e == 0:
                running += geom.root_step_degree(r, v0, v1)
                landed.append((i, j, v1 // e))
        if (running and k < last) or len(landed) - new >= 2:
            raise NotAdmissible("path %r is not admissible" % (path.steps,))
    word = []
    cur = geom.fundamental
    length = 0
    for h in landed:
        t = geom.wall_type(cur, h)
        if t is None:
            raise NotAGallery("hyperplane %r does not bound alcove %r" % (h, cur))
        cur = geom.star(cur, t)
        if geom.length(cur) != length + 1:
            raise NotAGallery("crossing %r does not move away from the origin" % (h,))
        length += 1
        word.append(t)
    if all(v % e for v in values) and cur != geom.alcove_of(path.endpoint()):
        raise NotAGallery("gallery does not end at the endpoint's alcove")
    return tuple(word)
