"""Test-only reference code: checks that recompute a result apart from the
code under test, and the enumerations and closed forms the tests compare
the package's results with."""

from collections import Counter
from dataclasses import dataclass
from math import comb

from quivertl import decomposition, soergel
from quivertl.decomposition import (
    Block,
    DecompositionMatrix,
    NotLevelTwo,
    block_of,
    decomposition_matrix,
)
from quivertl.geometry import InternalMismatch, geometry_for
from quivertl.laurent import (
    Laurent,
    ONE,
    SplitImpossible,
    ZERO,
    canonical,
    split_symmetric,
    subtract_product,
    value_table,
)
from quivertl.paths import (
    NotAdmissible,
    NotAGallery,
    PathWord,
    class_counts,
    cross_wall,
    gallery_of,
    root_gallery,
)
from quivertl.soergel import n_function, run_all
from quivertl.tableaux import loading, node_residue


def gallery_n(geom, word, memo):
    """The n alcove function propagated crossing by crossing along the
    gallery ``word`` from the fundamental alcove: the reference that
    ``n_function``, which steps down from its alcove, is checked against.

    At each crossing every value moves to its alcove and its star partner;
    then, at each alcove d shorter than the new gallery alcove, the
    constant term ct is cancelled by subtracting ct * n_d, where n_d is
    propagated the same way along a minimal gallery and kept in ``memo``.
    """
    cur = geom.fundamental
    n_fn = {cur: ONE}
    for t in word:
        cur = geom.star(cur, t)
        crossed = {}
        for b, v in n_fn.items():
            p = geom.star(b, t)
            if geom.length(p) > geom.length(b):
                parts = ((p, v), (b, mul(v, T)))
            else:
                parts = ((b, mul(v, T_INV)), (p, v))
            for key, poly in parts:
                crossed[key] = add(crossed.get(key, ZERO), poly)
        n_fn = dict(crossed)
        for d, poly in crossed.items():
            ct = poly.constant_term()
            if d == cur or geom.length(d) >= geom.length(cur) or ct == 0:
                continue
            if d not in memo:
                memo[d] = gallery_n(geom, geom.minimal_gallery(d), memo)
            for key, aux in memo[d].items():
                n_fn[key] = sub(n_fn.get(key, ZERO), mul(aux, Laurent.term(0, ct)))
        n_fn = {k: v for k, v in n_fn.items() if v}
    return n_fn


def gallery_along(params, word):
    """The node of the gallery ``word`` (a tuple of wall types) in the
    trie of params' ``Geometry``: crossed from ``root_gallery`` with
    ``cross_wall``, so that it raises ``NotAGallery`` as a crossing does."""
    geom = geometry_for(params)
    gallery = root_gallery(geom)
    for t in word:
        gallery = cross_wall(geom, gallery, geom.walls(gallery.end)[t])
    return gallery


def trie_nodes(geom):
    """Every node of geom's trie of galleries, root first, each node's
    children in wall-type order."""
    out = [root_gallery(geom)]
    for node in out:
        out.extend(node.next[t] for t in sorted(node.next))
    return out


def verify_factorization(params, word):
    """Check m = sum over alcoves nu of e(nu) * n_nu along the gallery
    ``word``, for the m and the e that ``run_all`` carries along it.

    e is not solved from m: it is crossed along the gallery with m, by the
    multiplication formula of the Kazhdan-Lusztig basis
    (``soergel._cross_characters``; W. Soergel, Represent. Theory 1
    (1997)), with the side of each crossing read in O(1) from the one
    floor that moves (|2m - 1 - b_r - f0_r| > |b_r - f0_r|,
    ``Geometry.crossing``), so this identity is a check of it.  The
    former solve's checks moved into the package: each new e value must
    be bar-symmetric, and each run's n of e's support must stay inside
    m's support.  Each n_nu is propagated afresh along a minimal gallery
    to nu (``gallery_n``) and must equal ``n_function``'s, and the sum is
    formed here, so a carried e that drifted from m would show.
    """
    geom = geometry_for(params)
    m_fn, _, e_fn = run_all(params, gallery_along(params, word))
    memo = {}
    total = {}
    for nu, e in e_fn.items():
        n_nu = gallery_n(geom, geom.minimal_gallery(nu), memo)
        if n_nu != n_function(geom, nu):
            return False
        for key, poly in n_nu.items():
            total[key] = add(total.get(key, ZERO), mul(e, poly))
    return {k: v for k, v in total.items() if v} == m_fn


def solve_characters(geom, m_fn):
    """The e with m = sum over alcoves nu of e(nu) * n_nu, solved from m:
    the reference that the characters ``run_all`` carries along the
    gallery are checked against.

    n_nu is 1 at nu and otherwise lives on shorter alcoves, so walking m's
    support by decreasing length, the part of m not yet accounted for at
    an alcove is e there.  Each e is the canonical value of its polynomial
    (``laurent.canonical``), so it can be compared with run_all's by
    identity.  Raises ``InternalMismatch`` when an e is not bar-symmetric
    or an n_nu reaches outside the unsolved support of m.
    """
    # the unsolved alcoves, each with the term dict of m there minus what
    # is accounted for so far: None until its first write copies m's
    rest = dict.fromkeys(m_fn)
    e_fn = {}
    values = value_table(geom)
    for key in sorted(m_fn, key=lambda k: (geom.length(k), k), reverse=True):
        acc = rest.pop(key)
        if acc is None:
            e = m_fn[key]
        elif acc:
            e = canonical(values, acc)
        else:
            continue
        if e.bar() != e:
            raise InternalMismatch(
                "character at alcove %r is not bar-symmetric: %s" % (key, e)
            )
        e_fn[key] = e
        for b_key, poly in n_function(geom, key).items():
            if b_key == key:
                continue
            if b_key not in rest:
                raise InternalMismatch(
                    "n of alcove %r reaches %r outside the unsolved support of m"
                    % (key, b_key)
                )
            acc = rest[b_key]
            if acc is None:
                acc = rest[b_key] = dict(m_fn[b_key].terms)
            subtract_product(acc, poly.terms, e.terms)
    return e_fn


def alcoves_up_to(g, length):
    """Every alcove of ``g`` of length at most ``length``, found by
    crossing each wall that lengthens an alcove, shortest first."""
    found = [g.fundamental]
    layer = found
    for k in range(length):
        layer = sorted(
            {c for a in layer for t in range(g.l) if g.length(c := g.star(a, t)) == k + 1}
        )
        found += layer
    return found


def _times_bar_hs(geom, g, s):
    """The element g = sum g(x) H_x, as {alcove: term dict}, times
    bar(H_s) = H_s + (t - t^-1) on the right: of a pair (low, high =
    star(low, s)), high gets g(low) and low gets g(high) + (t - t^-1)
    g(low).  Zero values are dropped."""
    out = {}
    for key in g:
        if key in out:
            continue
        partner = geom.star(key, s)
        low, high = sorted((key, partner), key=geom.length)
        fl, fh = g.get(low, {}), g.get(high, {})
        out[high] = fl
        out[low] = Laurent(
            [*fh.items(), *((e + 1, c) for e, c in fl.items()),
             *((e - 1, -c) for e, c in fl.items())]
        ).terms
    return {k: v for k, v in out.items() if v}


def bar_standard(geom, x, memo):
    """bar(H_x) as {alcove: term dict}, memoised per alcove in ``memo``:
    H_fundamental is 1, and x = star(b, s) with (b, s) from
    ``soergel._lower(x)`` gives bar(H_x) = bar(H_b) bar(H_s)."""
    got = memo.get(x)
    if got is None:
        if x == geom.fundamental:
            got = {x: {0: 1}}
        else:
            b, s = soergel._lower(geom, x)
            got = _times_bar_hs(geom, bar_standard(geom, b, memo), s)
        memo[x] = got
    return got


def is_kl_basis_element(geom, w, n_fn, memo):
    """Whether N_w = sum over alcoves x of n_fn(x) H_x is the
    Kazhdan-Lusztig basis element of w, by the characterization that
    determines it (D. Kazhdan and G. Lusztig, Invent. Math. 53 (1979), in
    W. Soergel's normalisation): n_fn(w) = 1, n_fn(x) lies in tZ[t] for
    x != w, and sum over x of bar(n_fn(x)) bar(H_x) equals N_w.  ``memo``
    holds ``bar_standard``'s values for the alcoves of one ``geom``."""
    if n_fn.get(w, ZERO).terms != {0: 1}:
        return False
    if any(min(f.terms, default=1) < 1 for x, f in n_fn.items() if x != w):
        return False
    pairs = {}
    for x, f in n_fn.items():
        for y, h in bar_standard(geom, x, memo).items():
            pairs.setdefault(y, []).extend(
                (e - e1, c * c1) for e1, c1 in f.terms.items() for e, c in h.items()
            )
    barred = {y: Laurent(p).terms for y, p in pairs.items()}
    return {y: v for y, v in barred.items() if v} == {
        x: f.terms for x, f in n_fn.items()
    }


# -- Laurent polynomials -----------------------------------------------
#
# ``Laurent`` is a stored value with no ring operators.  The reference code
# sums and multiplies through its constructor, which adds the coefficients
# of repeated exponents and drops those that reach 0.


T = Laurent.term(1)
T_INV = Laurent.term(-1)


def add(*fs):
    """The sum of the Laurent polynomials ``fs``."""
    return Laurent([pair for f in fs for pair in f.terms.items()])


def sub(a, b):
    """The Laurent polynomial a - b."""
    return Laurent([*a.terms.items(), *((e, -c) for e, c in b.terms.items())])


def mul(a, b):
    """The Laurent polynomial a * b."""
    pairs = b.terms.items()
    return Laurent([(e + f, c * d) for e, c in a.terms.items() for f, d in pairs])


def _symmetric_power(k, c):
    """c * (t + t^-1)^k as a Laurent polynomial."""
    return Laurent({k - 2 * j: c * comb(k, j) for j in range(k + 1)})


def is_in_plus_semiring(f):
    """Membership in N[t + t^-1], decided by greedy top-term peeling.

    Repeatedly subtract c * (t + t^-1)^k where t^k is the current leading
    term with coefficient c; the input lies in the semiring exactly when
    this never meets a negative leading coefficient or a negative leading
    exponent and terminates at zero.
    """
    rem = f
    while rem.terms:
        k = max(rem.terms)
        c = rem.terms[k]
        if k < 0 or c < 0:
            return False
        rem = sub(rem, _symmetric_power(k, c))
    return True


# -- alcove geometry ---------------------------------------------------


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
    """The reflection in the wall h = (i, j, m) as an (unshifted)
    AffineElement."""
    i, j, m = h
    perm = list(range(l))
    perm[i], perm[j] = j, i
    trans = [0] * l
    trans[i] = m * e
    trans[j] = -m * e
    return AffineElement(tuple(perm), tuple(trans))


def element_along(geom, word):
    """The group element w of the gallery ``word`` from the fundamental
    alcove: the product of the reflections in the fundamental alcove's
    walls of the types in ``word``, so that w . fundamental is the
    gallery's last alcove."""
    w = AffineElement.identity(geom.l)
    for t in word:
        w = w.compose(reflection_element(geom.l, geom.e, geom._walls[t]))
    return w


def element_wall(geom, w, t):
    """The image under w of the fundamental alcove's wall of type t."""
    p, q, m = geom._walls[t]
    i, j = w.perm[p], w.perm[q]
    m += (w.trans[i] - w.trans[j]) // geom.e
    if i > j:
        i, j, m = j, i, -m
    return (i, j, m)


def apply(elem, x):
    """The AffineElement ``elem`` applied to the point x."""
    l = len(elem.perm)
    y = [0] * l
    for i in range(l):
        y[elem.perm[i]] = x[i] + elem.trans[elem.perm[i]]
    return tuple(y)


def shifted(elem, p, rho):
    """The rho-shifted action w.p = w(p + rho) - rho."""
    moved = apply(elem, tuple(p[i] + rho[i] for i in range(len(p))))
    return tuple(moved[i] - rho[i] for i in range(len(p)))


def root_value(rho, p, i, j):
    """<p + rho, e_i - e_j>, read off rho: the reference for
    ``Geometry.values``, which adds p's coordinates to the root values at
    the origin."""
    return (p[i] + rho[i]) - (p[j] + rho[j])


def length_by_count(geom, p):
    """The hyperplanes strictly separating p from the fundamental alcove,
    counted one multiple of e at a time: per root, the multiples of e
    strictly between its values at p and at the origin, both read off rho
    by ``root_value``.  The reference for ``Geometry.point_length``."""
    e, zero = geom.e, (0,) * geom.l
    total = 0
    for i, j in geom.roots:
        v, v0 = root_value(geom.rho, p, i, j), root_value(geom.rho, zero, i, j)
        total += sum(x % e == 0 for x in range(min(v, v0) + 1, max(v, v0)))
    return total


def reflect_point(geom, h, p):
    """The rho-shifted reflection of p in the wall h = (i, j, m)."""
    i, j, m = h
    v = root_value(geom.rho, p, i, j) - m * geom.e
    q = list(p)
    q[i] -= v
    q[j] += v
    return tuple(q)


def separating_count(a, b):
    """Hyperplanes separating the alcoves a and b."""
    return sum(abs(fa - fb) for fa, fb in zip(a, b))


def gallery_alcoves(geom, word):
    """The alcoves of the gallery ``word`` from the fundamental alcove,
    the final one included."""
    alcoves = [geom.fundamental]
    for t in word:
        alcoves.append(geom.star(alcoves[-1], t))
    return alcoves


def inverse(elem):
    """The inverse of the AffineElement ``elem``."""
    l = len(elem.perm)
    inv_perm = [0] * l
    for i in range(l):
        inv_perm[elem.perm[i]] = i
    # inverse(x) = sigma^-1(x - trans), and (sigma^-1 y)_i = y[perm[i]]
    trans = tuple(-elem.trans[elem.perm[i]] for i in range(l))
    return AffineElement(tuple(inv_perm), trans)


def star_by_conjugation(geom, b, a, h):
    """Reflect alcove b in its own wall of the same type as the wall h of
    alcove a: with a = w . fundamental and b = v . fundamental, the alcove
    v (w^-1 s_h w) . fundamental."""
    w = element_along(geom, geom.minimal_gallery(a))
    v = element_along(geom, geom.minimal_gallery(b))
    s = reflection_element(geom.l, geom.e, h)
    conjugated = v.compose(inverse(w).compose(s).compose(w))
    return geom.alcove_of(shifted(conjugated, (0,) * geom.l, geom.rho))


def compositions(n, l):
    """All tuples of l nonnegative integers summing to n, lexicographic."""
    if l == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, l - 1):
            yield (first,) + rest


def orbit_points_by_scan(geom, p, n):
    """The points of ``Geometry.orbit_points(geom._orbit_key(p), n)``
    found by scanning every composition of n for p's multiset of
    (coordinate + rho) residues mod e."""
    want = geom._orbit_key(p)
    return [q for q in compositions(n, geom.l) if geom._orbit_key(q) == want]


def blocks_by_scan(params, n):
    """``decomposition.blocks`` found by scanning every composition of n
    and grouping by ``_orbit_key``: each member flagged regular when
    ``classify`` finds no wall through it, and ordered by its length from
    ``length_by_count``."""
    geom = geometry_for(params)
    groups = {}
    for q in compositions(n, params.l):
        groups.setdefault(geom._orbit_key(q), []).append(q)
    out = []
    for members in groups.values():
        ranked = sorted((length_by_count(geom, q), q) for q in members)
        out.append(
            Block(
                params,
                n,
                tuple(q for _, q in ranked),
                tuple(not geom.classify(q) for _, q in ranked),
                tuple(k for k, _ in ranked),
            )
        )
    out.sort(key=lambda b: b.members[0])
    return out


def alcove_series_by_points(params, path):
    """``alcove_series`` walked point by point: the walls through each
    prefix point come from ``Geometry.classify`` and the degree of each
    step from ``Geometry.step_degree``, both recomputed from the points;
    each crossing compares the lengths of both alcoves."""
    geom = geometry_for(params)
    landed = []
    running = 0
    walls = []
    for k in range(1, len(path) + 1):
        prev, walls = walls, geom.classify(path.points[k])
        pairs = [c for i, j, _ in walls for c in (i, j)]
        running += geom.step_degree(path.points[k - 1], path.points[k])
        landed += [h for h in walls if h not in prev]
        if len(set(pairs)) < len(pairs) or (running and k < len(path)):
            raise NotAdmissible("path %r is not admissible" % (path.steps,))
    word = []
    cur = geom.fundamental
    for h in landed:
        t = geom.wall_type(cur, h)
        if t is None:
            raise NotAGallery("hyperplane %r does not bound alcove %r" % (h, cur))
        nxt = geom.star(cur, t)
        if geom.length(nxt) != geom.length(cur) + 1:
            raise NotAGallery("crossing %r does not move away from the origin" % (h,))
        word.append(t)
        cur = nxt
    if not walls and cur != geom.alcove_of(path.endpoint()):
        raise NotAGallery("gallery does not end at the endpoint's alcove")
    return tuple(word)


def evaluate_at_points(params, fn, points):
    """Evaluate an alcove function at regular weights (zero off support)."""
    geom = geometry_for(params)
    return {tuple(p): fn.get(geom.alcove_of(p), ZERO) for p in points}


# -- tableaux ----------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    """A filling of a one-column multipartition: ``columns[m-1]`` lists the
    entry values of component m from top to bottom.  Entries are loading
    values of the weight."""

    shape: tuple
    weight: tuple
    columns: tuple


def node_loading(params, r, m):
    """Loading value of the node in row r (1-based) of component m (1-based)."""
    return (m - 1) + params.l * (r - 1)


def entries_in_order(tab):
    """(value, row, component) triples of a tableau sorted by entry value."""
    out = []
    for m, col in enumerate(tab.columns, start=1):
        for r, value in enumerate(col, start=1):
            out.append((value, r, m))
    out.sort()
    return out


def semistandard_tableaux(params, lam, mu):
    """All semistandard tableaux of shape lam and weight mu.

    The loading values of mu are placed in increasing order; a value may
    extend any component whose next empty node matches its residue.  The
    column conditions (first entry at least the component offset, each
    later entry at least the previous plus l) are strict inequalities on
    the infinitesimally perturbed loadings, which on the integer values
    reduce to these weak ones.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    entries = loading(params, mu)
    results = []
    columns = [[] for _ in range(params.l)]

    def place(idx):
        if idx == len(entries):
            results.append(Tableau(lam, mu, tuple(tuple(col) for col in columns)))
            return
        x, res, _ = entries[idx]
        for m in range(1, params.l + 1):
            col = columns[m - 1]
            h = len(col)
            if h >= lam[m - 1]:
                continue
            if node_residue(params, h + 1, m) != res:
                continue
            if h == 0:
                if x < m - 1:
                    continue
            elif x < col[-1] + params.l:
                continue
            col.append(x)
            place(idx + 1)
            col.pop()

    place(0)
    results.sort(key=lambda t: t.columns)
    return results


def addable_removable(params, lam, res):
    """Components with an addable / removable node of the given residue."""
    addable = []
    removable = []
    for m in range(1, params.l + 1):
        h = lam[m - 1]
        if (params.kappa[m - 1] - h) % params.e == res:
            addable.append(m)
        if h >= 1 and (params.kappa[m - 1] + 1 - h) % params.e == res:
            removable.append(m)
    return addable, removable


def placement_degree(params, heights, m):
    """Degree increment of the placement that made the bottom node of
    component m, given the column heights just after it: the number of
    addable nodes of that node's residue strictly to its right minus the
    number of removable ones."""
    r = heights[m - 1]
    res = node_residue(params, r, m)
    x_here = node_loading(params, r, m)
    addable, removable = addable_removable(params, heights, res)
    return sum(
        1 for c in addable if node_loading(params, heights[c - 1] + 1, c) > x_here
    ) - sum(1 for c in removable if node_loading(params, heights[c - 1], c) > x_here)


def tableau_degree(params, tab):
    """Degree of a semistandard tableau: the sum of ``placement_degree``
    over its entries, placed in increasing order."""
    heights = [0] * params.l
    total = 0
    for _, _, m in entries_in_order(tab):
        heights[m - 1] += 1
        total += placement_degree(params, tuple(heights), m)
    return total


class NotOnHyperplane(ValueError):
    """Tail reflection requested at a point not on the given wall."""


def reflect_tail(params, path, k, h):
    """Reflect the tail of ``path`` after position k in the wall h.

    h is a wall as the 0-based (i, j, m) triple of ``Geometry.classify``.
    Requires the k-th prefix point to lie on h; in type A the reflection
    swaps the 1-based letters i + 1 and j + 1 in the tail, as
    ``reflection_closure`` does.
    """
    geom = geometry_for(params)
    point = path.points[k]
    if h not in geom.classify(point):
        raise NotOnHyperplane("point %r is not on %r" % (point, h))
    i, j, _ = h
    swap = {i + 1: j + 1, j + 1: i + 1}
    tail = tuple(swap.get(s, s) for s in path.steps[k:])
    return PathWord(path.l, path.steps[:k] + tail)


def component_word(params, tab):
    """The component word of a tableau, as a path."""
    return PathWord(params.l, tuple(m for _, _, m in entries_in_order(tab)))


def is_admissible(params, path):
    """Every proper prefix has degree 0 and any two walls through a common
    prefix point touch disjoint coordinate pairs.  The reference for
    ``alcove_series``: step degrees are ``placement_degree``'s, and the
    walls through a point are read off rho here."""
    running = 0
    for k in range(1, len(path)):
        running += placement_degree(params, path.points[k], path.steps[k - 1])
        if running != 0:
            return False
    l = params.l
    for p in path.points:
        walls = [
            {i, j}
            for i in range(l)
            for j in range(i + 1, l)
            if root_value(params.rho, p, i, j) % params.e == 0
        ]
        for a in range(len(walls)):
            for b in range(a + 1, len(walls)):
                if walls[a] & walls[b]:
                    return False
    return True


def residue_multiset(params, lam):
    return Counter(res for _, res, _ in loading(params, lam))


def dominance_leq(params, mu, lam):
    """Loading dominance mu <= lam: for every residue and every threshold,
    lam has at least as many nodes of that residue strictly below it.

    It suffices to test thresholds just above each occurring loading value.
    """
    lam_load = loading(params, lam)
    mu_load = loading(params, mu)
    thresholds = sorted({x + 1 for x, _, _ in lam_load + mu_load})
    for a in thresholds:
        lam_counts = Counter(res for x, res, _ in lam_load if x < a)
        mu_counts = Counter(res for x, res, _ in mu_load if x < a)
        for res, cnt in mu_counts.items():
            if lam_counts.get(res, 0) < cnt:
                return False
    return True


# -- decomposition data ------------------------------------------------


def stability_check(params, block, i):
    """Adding i boxes to every column preserves the decomposition data.

    The shifted block lives in TL_{n + i*l}(kappa); entries are compared
    through the member bijection lam -> lam + (i, ..., i).
    """

    def moved(p):
        return tuple(c + i for c in p)

    base = decomposition_matrix(params, block)
    big = block_of(params, block.n + i * params.l, moved(block.members[0]))
    if set(moved(m) for m in block.members) - set(big.members):
        return False
    shifted_dm = decomposition_matrix(params, big)
    for (lam, mu), poly in base.entries.items():
        if shifted_dm.d(moved(lam), moved(mu)) != poly:
            return False
    for (lam, mu), poly in base.characters.items():
        if shifted_dm.character(moved(lam), moved(mu)) != poly:
            return False
    return True


def level2_hom_dim(params, i, j):
    """Graded hom space dimension between level-two standard modules of
    the ``(length, primed)`` labels i and j: t^(j - i) for strictly
    increasing lengths, 0 otherwise."""
    if params.l != 2:
        raise NotLevelTwo("hom dimensions need l = 2")
    (li, _), (lj, _) = i, j
    if li < lj:
        return Laurent.term(lj - li)
    return ZERO


def split_symmetric_by_difference(f):
    """``laurent.split_symmetric`` by its defining formula: the forced
    bar-symmetric part e (e(-k) = e(k) = f(-k) for k > 0, e(0) = f(0)),
    and n = f - e, which must have no negative coefficient."""
    sym = {}
    for e, c in f.terms.items():
        if e < 0:
            sym[e] = c
            sym[-e] = c
        elif e == 0:
            sym[0] = c
    e_part = Laurent(sym)
    n_part = sub(f, e_part)
    if any(c < 0 for c in n_part.terms.values()):
        raise SplitImpossible("no symmetric + positive decomposition of %s" % f)
    return e_part, n_part


# -- the routes as dense loops -------------------------------------------
#
# Both routes of ``decomposition`` as they were before they skipped zero
# entries: every (lam, mu) pair of the block is visited and written, ZERO
# included.  They read the counts through ``decomposition._standard_dims``
# at call time, so that a test which replaces it reaches the twins and the
# routes alike, and read a pair missing from the counts as ZERO.


def dense_decomposition_matrix(params, block):
    """``decomposition_matrix``, visiting every member pair."""
    decomposition._require_regular(block)
    geom = geometry_for(params)
    members = block.members
    dims = decomposition._standard_dims(params, block)
    alcove = {lam: geom.alcove_of(lam) for lam in members}
    entries = {}
    characters = {}
    for mu in members:
        try:
            gallery = gallery_of(params, mu, class_counts(params, mu)[0])
        except (NotAdmissible, NotAGallery) as exc:
            raise InternalMismatch(
                "distinguished path of mu=%s: %s" % (list(mu), exc)
            ) from exc
        m_fn, n_fn, e_fn = run_all(params, gallery)
        for lam in members:
            key = alcove[lam]
            m = m_fn.get(key, ZERO)
            count = dims.get((lam, mu), ZERO)
            if m != count:
                raise InternalMismatch(
                    "recursion route: graded dimension mismatch at lambda=%s, "
                    "mu=%s: %s vs %s" % (list(lam), list(mu), m, count)
                )
            entries[(lam, mu)] = n_fn.get(key, ZERO)
            characters[(lam, mu)] = e_fn.get(key, ZERO)
    return DecompositionMatrix(block, entries, characters, dims)


def dense_kn_oracle(params, block):
    """``kn_oracle``, visiting every row of every column in the order
    (-length, lam), with no memo, once every diagonal count is checked to
    be 1."""
    decomposition._require_regular(block)
    counts = decomposition._standard_dims(params, block)
    length = dict(zip(block.members, block.lengths))
    rows = sorted(block.members, key=lambda q: (-length[q], q))
    entries = {}
    characters = {}
    row_dec = {lam: {} for lam in block.members}
    for mu in block.members:
        diagonal = counts.get((mu, mu), ZERO)
        if diagonal != ONE:
            raise InternalMismatch(
                "path-counting oracle: the count of mu=%s at itself is %s, "
                "not 1" % (list(mu), diagonal)
            )
    for mu in block.members:
        support = []
        for lam in rows:
            f = counts.get((lam, mu), ZERO)
            if lam == mu:
                char = dec = ONE
            elif not f:
                char = dec = ZERO
            elif length[lam] >= length[mu]:
                raise InternalMismatch(
                    "path-counting oracle: weight %s is reached from mu=%s but "
                    "its alcove is not shorter" % (list(lam), list(mu))
                )
            else:
                decs = row_dec[lam]
                for nu, c in support:
                    d = decs.get(nu)
                    if d is not None:
                        f = sub(f, mul(d, c))
                try:
                    char, dec = split_symmetric(f)
                except SplitImpossible as exc:
                    raise InternalMismatch(
                        "path-counting oracle: %s at lambda=%s, mu=%s"
                        % (exc, list(lam), list(mu))
                    ) from exc
                if dec:
                    decs[mu] = dec
                if char:
                    support.append((lam, char))
            entries[(lam, mu)] = dec
            characters[(lam, mu)] = char
    return DecompositionMatrix(block, entries, characters, counts)


def reference_render_matrix_table(matrix):
    """The ``decompose`` table report, cell by cell through ``matrix.d``,
    ``character`` and ``standard_dim`` and ``str`` of each value: the
    reference for ``cli._render_matrix_table``."""
    members = matrix.block.members
    lines = ["block: %s" % [list(m) for m in members]]

    def table(title, getter, rows, cols):
        lines.append(title)
        header = ["lambda \\ mu"] + [str(list(mu)) for mu in cols]
        body = []
        for lam in rows:
            body.append([str(list(lam))] + [str(getter(lam, mu)) for mu in cols])
        widths = [
            max(len(row[c]) for row in [header] + body) for c in range(len(header))
        ]
        for row in [header] + body:
            lines.append(
                "  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )

    table("decomposition numbers d:", matrix.d, members, members)
    table("simple characters:", matrix.character, members, members)
    table("standard dimensions:", matrix.standard_dim, members, members)
    return "\n".join(lines) + "\n"
