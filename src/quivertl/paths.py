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
component word.  Graded path counts are therefore taken from the tableau
DP (``tableaux.place_nodes``), which serves every lam at once, instead of
enumerating the closure, which has 2^length(mu) paths.  The closure is
enumerated only where the paths themselves are wanted (``paths_between``,
the ``paths`` and ``svg`` commands) and as the test oracle for the counts.

A column's counts and gallery depend only on its translation class (the
translation lemma of ``tableaux``), so ``geom.caches["classes"]`` keeps
one ``ClassRecord`` per class, read by ``class_counts`` and
``gallery_word``; a new record continues the DP and the walk of the
longest stored prefix of its loading (the prefix lemma).  The reference
entry points ``graded_tableau_counts`` and ``alcove_series`` run the same
DP and walk from the empty tableau and the origin.  The records live as
long as the ``Geometry``.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ZERO
from .tableaux import (
    graded_tableau_counts,
    loading,
    node_residue,
    place_nodes,
    translation_class,
)


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
    sum of t^(degree) over paths_between(lam, mu), read from mu's class
    table (lam and mu are tuples).  A shape that is in no table has
    count 0."""
    table, k = class_counts(params, mu)
    if k:
        lam = tuple([x - k for x in lam])
    return table.get(lam, ZERO)


def class_counts(params, mu):
    """(table, k): mu's nonzero counts are its class record's ``table``
    with every shape shifted by +k*(1, ..., 1), k = min(mu).  Callers must
    not change the table."""
    base, k = translation_class(mu)
    return _record(geometry_for(params), params, base).table, k


def gallery_word(params, mu):
    """``alcove_series`` of mu's distinguished path, raising as it does:
    crossed once per class from its record's walk, and kept there unless
    it fails."""
    base, _ = translation_class(mu)
    geom = geometry_for(params)
    record = _record(geom, params, base)
    if record.word is None:
        if record.running is None:
            steps = distinguished_path(params, base).steps
            raise NotAdmissible("path %r is not admissible" % (steps,))
        # a singular endpoint ends no alcove, so it is not passed
        record.word = _crossings(geom, record.landed, base if record.regular else None)
    return record.word


class ClassRecord:
    """A class's count ``table``, the ``running`` degree of the walk along
    its distinguished path (None when it is not admissible), the walls it
    ``landed`` on and whether the walk's endpoint is ``regular`` (read off
    the root values the walk ends at), and its gallery ``word`` once it is
    crossed."""

    __slots__ = ("table", "running", "landed", "regular", "word")

    def __init__(self, table, running, landed, regular):
        self.table = table
        self.running = running
        self.landed = landed
        self.regular = regular
        self.word = None


def _record(geom, params, mu0):
    """The record of the representative mu0, kept in ``caches["classes"]``.
    A new one continues the DP and the walk from the stored record of the
    longest proper prefix nu of mu0's loading, found by taking the last
    loading node (row max(nu), the highest component there) off the shape
    one at a time; the empty shape's record is always stored."""
    records = geom.caches.get("classes")
    if records is None:
        # the root every record extends: the empty shape, whose table is
        # the empty tableau's count
        zero = (0,) * geom.l
        records = geom.caches["classes"] = {
            zero: ClassRecord(graded_tableau_counts(params, zero), 0, (), True)
        }
    record = records.get(mu0)
    if record is not None:
        return record
    nu = list(mu0)
    residues, letters = [], []  # of the nodes beyond nu, last node first
    while True:
        top = max(nu)
        m = geom.l - nu[::-1].index(top)
        residues.append(node_residue(params, top, m))
        letters.append(m)
        nu[m - 1] = top - 1
        prefix = records.get(tuple(nu))
        if prefix is not None:
            break
    states = {lam: poly.terms for lam, poly in prefix.table.items()}
    landed = list(prefix.landed)
    running = prefix.running
    regular = False
    if running is not None:
        values = geom.values(nu)
        running = _walk(geom, values, running, landed, letters[::-1])
        # the walk ends at mu0's root values
        e = geom.e
        regular = running is not None and all(v % e for v in values)
    record = records[mu0] = ClassRecord(
        place_nodes(params, states, residues[::-1]), running, tuple(landed), regular
    )
    return record


def alcove_series(params, path):
    """The gallery traced by an admissible path: starting at the fundamental
    alcove, every step onto a new wall (``_walk``) crosses that wall
    (``_crossings``).  Returned as the word of the wall types crossed."""
    geom = geometry_for(params)
    landed = []
    if _walk(geom, list(geom.origin_values), 0, landed, path.steps) is None:
        raise NotAdmissible("path %r is not admissible" % (path.steps,))
    endpoint = path.endpoint()
    e = geom.e
    return _crossings(
        geom, landed, endpoint if all(v % e for v in geom.values(endpoint)) else None
    )


def _walk(geom, values, running, landed, steps):
    """Continue a walk at root values ``values`` (changed in place) and
    degree ``running`` over the letters ``steps``, appending the walls each
    step lands on to ``landed`` (in root order).  Returns the degree, or
    None when the walk is not admissible.

    Admissible means that every proper prefix has degree 0 and that any
    two walls through a common point touch disjoint coordinate pairs.  A
    step updates the l - 1 values its coordinate touches
    (``Geometry.touches``), and only a root that lands on or leaves a
    wall adds to the degree or changes the walls.  A step that leaves one
    wall for an orthogonal one skips an alcove, which the crossings still
    insert.

    Two walls through the new point share a coordinate exactly when the
    step landed on two or more walls, so the walk checks only that count.
    A step moves one coordinate i and leaves every wall through i that
    the old point was on, so the walls through i at the new point are the
    ones just landed on, and any two of those share i.  A landed wall
    (i, j) next to a wall (j, k) that the point was already on forces
    (i, k) to land in the same step, since root values add.  Two walls
    that both miss i were both on the old point, which passed the check.
    """
    e = geom.e
    touches = geom.touches
    step = geom.root_step_degree
    for s in steps:
        if running:
            # the walk so far is a proper prefix of this one
            return None
        new = len(landed)
        for r, sign, i, j in touches[s - 1]:
            v0 = values[r]
            v1 = values[r] = v0 + sign
            if v0 % e == 0:
                running += step(r, v0, v1)
            elif v1 % e == 0:
                running += step(r, v0, v1)
                landed.append((i, j, v1 // e))
        if len(landed) - new >= 2:
            return None
    return running


def _crossings(geom, landed, endpoint):
    """The word of the wall types crossed from the fundamental alcove over
    the walls ``landed``, validated to be a minimal gallery of lengths
    0, 1, ..., k that ends at the alcove of ``endpoint``; the caller passes
    None for an endpoint that lies on a wall, whose end is not checked.
    The origin is regular (``Params`` keeps the residues distinct)."""
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
    if endpoint is not None and cur != geom.alcove_of(endpoint):
        raise NotAGallery("gallery does not end at the endpoint's alcove")
    return tuple(word)
