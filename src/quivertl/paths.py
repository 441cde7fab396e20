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
the ``paths`` and ``svg`` commands), where it is kept nowhere, and as the
test oracle for the counts.

A column's counts and gallery depend only on its translation class (the
translation lemma of ``tableaux``), so ``geom.caches["classes"]`` keeps
one ``ClassRecord`` per class, looked up by ``class_counts``; a new
record continues the DP, the walk and the gallery of the longest stored
prefix of its loading (the prefix lemma).  A gallery is a node of the
``Geometry``'s trie of galleries (``caches["galleries"]``, its root
``root_gallery``): ``cross_wall`` makes each child, keyed by (parent,
wall type), once, and checks it there, so each distinct prefix is
crossed once per ``Geometry`` whatever the order of requests.  A record
crosses only the walls its own steps land on, checks a regular
endpoint's alcove against the end, and keeps the node or the
``NotAGallery`` message, which ``gallery_of`` raises.  The reference
entry points ``graded_tableau_counts`` and ``alcove_series`` run the
same DP, walk and crossing from the empty tableau and from a root of
their own, with no memo.  The records and the trie live as long as the
``Geometry``.
"""

from __future__ import annotations

from .geometry import geometry_for
from .laurent import ONE, ZERO
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
    lexicographically sorted, each with its degree.  Nothing is kept: a
    ``paths`` or ``svg`` process asks for one closure."""
    lam = tuple(lam)
    closure = _closure_cached(params, tuple(mu), budget)
    return [(p, path_degree(params, p)) for p in closure if p.endpoint() == lam]


def _closure_cached(params, mu, budget):
    """The reflection closure of mu's distinguished path, which
    ``paths_between`` scans.  Nothing is cached; the name stays because
    the benchmark's tracer counts the paths scanned under it."""
    return reflection_closure(params, distinguished_path(params, mu), budget)


def graded_path_count(params, lam, mu):
    """The graded count of paths from the distinguished path of mu to lam:
    sum of t^(degree) over paths_between(lam, mu), read from mu's class
    table (lam and mu are tuples).  A shape that is in no table has
    count 0."""
    record, k = class_counts(params, mu)
    if k:
        lam = tuple([x - k for x in lam])
    return record.table.get(lam, ZERO)


def class_counts(params, mu):
    """(record, k): mu's class record, whose ``table`` with every shape
    shifted by +k*(1, ..., 1), k = min(mu), holds mu's nonzero counts.
    Callers must not change the table."""
    base, k = translation_class(mu)
    return _record(geometry_for(params), params, base), k


def gallery_of(params, mu, record):
    """mu's gallery from mu's class ``record`` (``class_counts(params,
    mu)[0]``): its ``Gallery`` node, or the ``NotAdmissible`` or
    ``NotAGallery`` that ``alcove_series`` of mu's distinguished path
    raises, with the same message."""
    if record.running is None:
        steps = distinguished_path(params, translation_class(mu)[0]).steps
        raise NotAdmissible("path %r is not admissible" % (steps,))
    gallery = record.gallery
    if gallery.__class__ is str:
        raise NotAGallery(gallery)
    return gallery


class ClassRecord:
    """A class's count ``table``, the ``running`` degree of the walk along
    its distinguished path (None when it is not admissible), and, when it
    is, its ``gallery``: the ``Gallery`` node of the walls the walk landed
    on, or the message of the ``NotAGallery`` that crossing them raised."""

    __slots__ = ("table", "running", "gallery")

    def __init__(self, table, running, gallery):
        self.table = table
        self.running = running
        self.gallery = gallery


class Gallery:
    """A node of a ``Geometry``'s trie of galleries: the ``word`` of wall
    types crossed from the fundamental alcove, its ``end`` alcove, its
    ``parent`` node (None at a root) and its children, ``next``, by wall
    type.  ``soergel`` keeps the gallery's ``m`` and its ``run`` on it."""

    __slots__ = ("word", "end", "parent", "next", "m", "run")

    def __init__(self, word, end, parent):
        self.word = word
        self.end = end
        self.parent = parent
        self.next = {}
        self.m = self.run = None


def root_gallery(geom):
    """The empty gallery at the root of geom's trie,
    ``caches["galleries"]``, with m = 1 at the fundamental alcove."""
    root = geom.caches.get("galleries")
    if root is None:
        start = geom.fundamental
        root = geom.caches["galleries"] = Gallery((), start, None)
        root.m = {start: ONE}
    return root


def cross_wall(geom, gallery, h):
    """The child of ``gallery`` across the wall h of its end alcove, made
    once.  Raises ``NotAGallery`` when h does not bound the end alcove,
    or when the crossing's length is not one more than the gallery's: the
    trie holds minimal galleries only, of lengths 0, 1, ..., k (the
    origin is regular, since ``Params`` keeps the residues distinct)."""
    end = gallery.end
    t = geom.wall_type(end, h)
    if t is None:
        raise NotAGallery("hyperplane %r does not bound alcove %r" % (h, end))
    child = gallery.next.get(t)
    if child is None:
        nxt = geom.star(end, t)
        word = gallery.word + (t,)
        if geom.length(nxt) != len(word):
            raise NotAGallery("crossing %r does not move away from the origin" % (h,))
        child = gallery.next[t] = Gallery(word, nxt, gallery)
    return child


def _extend(geom, gallery, landed, values, point):
    """``gallery`` crossed over the walls ``landed`` to the end of a walk
    at ``point``, whose root values are ``values``.  A regular point must
    lie in the end alcove, or ``NotAGallery`` is raised; a singular point
    ends no alcove, so it is not checked."""
    for h in landed:
        gallery = cross_wall(geom, gallery, h)
    e = geom.e
    for v in values:
        if v % e == 0:
            return gallery
    if gallery.end != geom.alcove_of(point):
        raise NotAGallery("gallery does not end at the endpoint's alcove")
    return gallery


def _record(geom, params, mu0):
    """The record of the representative mu0, kept in ``caches["classes"]``.
    A new one continues the DP, the walk and the gallery from the stored
    record of the longest proper prefix nu of mu0's loading, found by
    taking the last loading node off one list nu in place, one node at a
    time: row max(nu) of the component at the last index of that maximum.
    The empty shape's record, at the root of the trie, is always stored.
    The DP reads the prefix's stored table as it is, the gallery crosses
    only the walls its own steps land on, and a record whose prefix failed
    to cross keeps the prefix's message."""
    records = geom.caches.get("classes")
    if records is None:
        # the root every record extends: the empty shape, whose table is
        # the empty tableau's count
        zero = (0,) * geom.l
        records = geom.caches["classes"] = {
            zero: ClassRecord(
                graded_tableau_counts(params, zero), 0, root_gallery(geom)
            )
        }
    record = records.get(mu0)
    if record is not None:
        return record
    nu = list(mu0)
    residues, letters = [], []  # of the nodes beyond nu, last node first
    while True:
        top = max(nu)
        m = geom.l
        while nu[m - 1] != top:
            m -= 1
        residues.append(node_residue(params, top, m))
        letters.append(m)
        nu[m - 1] = top - 1
        prefix = records.get(tuple(nu))
        if prefix is not None:
            break
    running = prefix.running
    gallery = prefix.gallery
    if running is not None:
        values = geom.values(nu)
        landed = []
        running = _walk(geom, values, running, landed, letters[::-1])
        if running is not None and gallery.__class__ is Gallery:
            # the walk ends at mu0's root values, so a regular end is in
            # mu0's alcove
            try:
                gallery = _extend(geom, gallery, landed, values, mu0)
            except NotAGallery as exc:
                gallery = str(exc)
    record = records[mu0] = ClassRecord(
        place_nodes(params, prefix.table, residues[::-1]), running, gallery
    )
    return record


def alcove_series(params, path):
    """The gallery traced by an admissible path: starting at the fundamental
    alcove, every step onto a new wall (``_walk``) crosses that wall
    (``cross_wall``), from a root of its own, so that no memo is read or
    kept.  Returned as the word of the wall types crossed."""
    geom = geometry_for(params)
    values = list(geom.origin_values)
    landed = []
    if _walk(geom, values, 0, landed, path.steps) is None:
        raise NotAdmissible("path %r is not admissible" % (path.steps,))
    root = Gallery((), geom.fundamental, None)
    return _extend(geom, root, landed, values, path.endpoint()).word


def _walk(geom, values, running, landed, steps):
    """Continue a walk at root values ``values`` (changed in place) and
    degree ``running`` over the letters ``steps``, appending the walls each
    step lands on to ``landed`` (in root order).  Returns the degree, or
    None when the walk is not admissible.

    Admissible means that every proper prefix has degree 0 and that any
    two walls through a common point touch disjoint coordinate pairs.  A
    step updates the l - 1 values its coordinate touches (the roots of its
    ``Geometry.components`` entry; the walk reads no value at the origin
    from it), and only a root that lands on or leaves a wall adds to the
    degree or changes the walls.  A step that leaves one wall for an
    orthogonal one skips an alcove, which the crossings still insert.

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
    components = geom.components
    step = geom.root_step_degree
    for s in steps:
        if running:
            # the walk so far is a proper prefix of this one
            return None
        new = len(landed)
        for r, sign, _, i, j in components[s - 1][2]:
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
