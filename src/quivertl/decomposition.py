"""
Blocks and graded decomposition matrices.

A block of TL_n(kappa) is an orbit of the shifted affine Weyl group
action on one-column multipartitions of n: the points of n boxes with one
multiset of residues (coordinate + rho) mod e (``Geometry.orbit_points``).
``blocks`` builds one block per multiset that points of n boxes have,
``block_of`` the block of its member's.  The block is regular exactly
when its residues are distinct.
For a block of regular weights the graded decomposition numbers d and
the graded standard-module dimensions are computed by running the
wall-crossing recursions along the alcove series of each column's
distinguished path, and the graded simple characters by solving
m = sum e(nu) * n_nu.  Two independent cross-checks
are built in:

* graded dimensions from the recursion must equal graded path counts,
* the whole matrix must equal the output of the path-counting oracle
  (``kn_oracle``), which uses nothing but graded path counts, alcove
  lengths and the symmetric-plus-positive splitting of Laurent
  polynomials, solving the counts' factorisation as a triangular system.

Both routes read the graded path counts, which are also the graded
standard dimensions, from one table per block (``_standard_dims``), built
once per ``Block`` and copied for each route.  Each column of it comes
from the tableau-placement count of ``paths``; no reflection closure is
enumerated here.  Columns that differ by a multiple of (1, ..., 1) share
their count table and their gallery (the translation lemma of
``tableaux``): ``paths`` memoises the tables in ``caches["count_tables"]``
and ``decomposition_matrix`` the gallery words in ``caches["galleries"]``,
both keyed by the class representative and kept as long as the
``Geometry``.

The tables of a ``DecompositionMatrix`` are dense: every pair of members
is a key, ``ZERO`` included.  Most of their values are zero, so neither
route visits every pair.  Each starts its two tables as a zero copy of
the count table's keys (``dict.fromkeys``, which hashes nothing), groups
the nonzero counts by column in one pass, and writes only nonzero values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import InternalMismatch, geometry_for
from .laurent import (
    Laurent,
    ONE,
    ZERO,
    SplitImpossible,
    from_terms,
    split_symmetric,
    subtract_product,
)
from .paths import (
    NotAdmissible,
    NotAGallery,
    alcove_series,
    distinguished_path,
    graded_path_count,
)
from .soergel import run_all
from .tableaux import translation_class


class NoRegularMember(ValueError):
    """The block contains no regular weight."""


class NotLevelTwo(ValueError):
    """A level-two closed form was requested with l != 2."""


@dataclass(frozen=True)
class Block:
    """One orbit of one-column multipartitions of n, in a fixed order:
    by number of walls separating the weight from the fundamental alcove
    (``lengths``, each member's ``Geometry.point_length``), then
    lexicographically.

    ``regular`` flags each member as regular.  The flags are all equal: a
    root value is a difference of two residues, so a member is regular
    exactly when the block's residues are distinct.  They stay one per
    member because the JSON report and the benchmark read them so."""

    params: object
    n: int
    members: tuple
    regular: tuple
    lengths: tuple
    # the graded path counts between members, filled by ``_standard_dims``
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "n": self.n,
            "members": [list(m) for m in self.members],
            "regular": list(self.regular),
        }


def _block(geom, params, n, key):
    """The block of the points of n boxes whose ``_orbit_key`` is key."""
    ranked = sorted((geom.point_length(q), q) for q in geom.orbit_points(key, n))
    members = tuple(q for _, q in ranked)
    regular = len(set(key)) == len(key)
    return Block(
        params, n, members, (regular,) * len(members), tuple(k for k, _ in ranked)
    )


def _reduced_points(l, e, n):
    """The points of n boxes whose first l - 1 coordinates are below e."""
    if l == 1:
        yield (n,)
        return
    for v in range(min(n, e - 1) + 1):
        for rest in _reduced_points(l - 1, e, n - v):
            yield (v,) + rest


def blocks(params, n):
    """All blocks of TL_n(kappa), sorted by their first member.

    Every block has a member whose first l - 1 coordinates are below e:
    moving multiples of e from them to the last coordinate keeps each
    residue.  So the residue multisets of those points, of which there are
    no more than compositions of n, are the blocks' multisets, and each
    is built once."""
    geom = geometry_for(params)
    keys = {geom._orbit_key(p) for p in _reduced_points(params.l, params.e, n)}
    out = [_block(geom, params, n, key) for key in keys]
    out.sort(key=lambda b: b.members[0])
    return out


def block_of(params, n, member):
    """The block of TL_n(kappa) containing ``member``; only its own orbit
    is built."""
    member = tuple(member)
    if len(member) == params.l:
        geom = geometry_for(params)
        block = _block(geom, params, n, geom._orbit_key(member))
        if member in block.members:
            return block
    raise ValueError("%r is not a one-column multipartition of %d" % (member, n))


def _require_regular(block):
    if not block.regular[0]:
        raise NoRegularMember("block %r has no regular member" % (block.members,))


@dataclass
class DecompositionMatrix:
    """Graded data of one block.

    ``entries[(lam, mu)]`` is the graded decomposition number d_{lam,mu},
    ``characters[(lam, mu)]`` the graded simple character of mu at lam,
    and ``standard_dims[(lam, mu)]`` the graded dimension of the
    mu-standard module at lam; the block's members are all regular.  The
    tables are dense: every pair of members is a key of each, with
    ``ZERO`` where the value is zero.  The routes build ``entries`` and
    ``characters`` as a zero copy of the keys of ``standard_dims``, the
    count table, and fill in their nonzero values.
    """

    block: Block
    entries: dict
    characters: dict
    standard_dims: dict

    def d(self, lam, mu):
        return self.entries.get((tuple(lam), tuple(mu)), ZERO)

    def character(self, lam, mu):
        return self.characters.get((tuple(lam), tuple(mu)), ZERO)

    def standard_dim(self, lam, mu):
        return self.standard_dims.get((tuple(lam), tuple(mu)), ZERO)

    def to_json(self):
        def table(data):
            return [
                {
                    "lambda": list(lam),
                    "mu": list(mu),
                    "poly": poly.to_pairs(),
                }
                for (lam, mu), poly in sorted(data.items())
                if poly
            ]

        return {
            "block": self.block.to_json(),
            "decomposition_numbers": table(self.entries),
            "characters": table(self.characters),
            "standard_dims": table(self.standard_dims),
        }


def _standard_dims(params, block):
    """Graded path counts between all members of the block, keyed by
    (lam, mu): the graded standard dimensions.  They are read once per
    block into ``block._counts``; each call returns its own copy, which
    the caller may change."""
    if not block._counts:
        # built whole before it is stored: a count that raises leaves no
        # partial table behind
        block._counts.update(
            {
                (lam, mu): graded_path_count(params, lam, mu)
                for mu in block.members
                for lam in block.members
            }
        )
    return dict(block._counts)


def _gallery(params, geom, mu):
    """The gallery word of mu's distinguished path, walked once per
    translation class: on the class representative, memoised under it in
    ``caches["galleries"]``."""
    galleries = geom.caches.setdefault("galleries", {})
    base, _ = translation_class(mu)
    word = galleries.get(base)
    if word is None:
        try:
            word = alcove_series(params, distinguished_path(params, base))
        except (NotAdmissible, NotAGallery) as exc:
            raise InternalMismatch(
                "distinguished path of mu=%s: %s" % (list(mu), exc)
            ) from exc
        galleries[base] = word
    return word


def decomposition_matrix(params, block):
    """Graded decomposition data of a regular block via the wall-crossing
    recursions, cross-checked against graded path counts.

    Each column's m must equal the column's nonzero counts, keyed by the
    rows' alcoves: the counts this call was given, not a memo.  Only when
    the two differ are the members scanned in order, to name the first
    pair that differs.  n and e are read on their supports (alcoves that
    hold no member are skipped), so each column writes its nonzero values
    alone.
    """
    _require_regular(block)
    geom = geometry_for(params)
    members = block.members
    dims = _standard_dims(params, block)
    alcove = {}
    member_at = {}
    columns = {}  # the nonzero counts of each column, by the row's alcove
    for lam in members:
        a = alcove[lam] = geom.alcove_of(lam)
        member_at[a] = lam
        columns[lam] = {}
    for (lam, mu), f in dims.items():
        if f.terms:
            columns[mu][alcove[lam]] = f
    entries = dict.fromkeys(dims, ZERO)
    characters = entries.copy()
    for mu, want in columns.items():
        m_fn, n_fn, e_fn, _ = run_all(params, _gallery(params, geom, mu))
        if m_fn != want:
            # m may also hold alcoves of no member, which are not compared
            for lam in members:
                m = m_fn.get(alcove[lam], ZERO)
                if m != dims[(lam, mu)]:
                    raise InternalMismatch(
                        "recursion route: graded dimension mismatch at lambda=%s, "
                        "mu=%s: %s vs %s" % (list(lam), list(mu), m, dims[(lam, mu)])
                    )
        for a, value in n_fn.items():
            lam = member_at.get(a)
            if lam is not None:
                entries[(lam, mu)] = value
        for a, value in e_fn.items():
            lam = member_at.get(a)
            if lam is not None:
                characters[(lam, mu)] = value
    return DecompositionMatrix(block, entries, characters, dims)


def kn_oracle(params, block):
    """The same decomposition data from path counting alone.

    The counts factor as M = D*C with D unitriangular, its off-diagonal
    entries the decomposition numbers in tZ[t], and C the bar-symmetric
    characters.  Columns mu are solved in block order, which is by
    increasing alcove length (``Block.lengths``), and within a column the
    rows lam by decreasing length: the count minus
    the sum of d(lam, nu) * c(nu, mu) over the intermediate nu then splits
    uniquely into a bar-symmetric part (the character value) plus a
    positively graded part (the decomposition number).

    Most counts are zero, and a zero count leaves both values zero, so a
    column's pass visits only its rows with a nonzero count, grouped by
    column in one pass over the counts; the diagonal is always 1.  Most
    characters are zero, so the sum runs only over the nu of the
    column already solved with c(nu, mu) != 0, and multiplies only where
    d(lam, nu) != 0: one fused multiply-subtract (``subtract_product``)
    per triple (lam, nu, mu) with nonzero d(lam, nu) and c(nu, mu), on the
    row's remainder as a term dict, copied from the count at the row's
    first product and wrapped once before it is split.  That is exact
    because each row checks, before it is split, that it is shorter than
    mu (paths out of mu only reach shorter alcoves): a nonzero
    d(lam, nu) * c(nu, mu) then needs length(lam) < length(nu) <
    length(mu), so both of its factors are solved before the pair
    (lam, mu).
    """
    _require_regular(block)
    counts = _standard_dims(params, block)
    members = block.members
    length = dict(zip(members, block.lengths))
    entries = dict.fromkeys(counts, ZERO)
    characters = entries.copy()
    columns = {}  # the nonzero off-diagonal counts of each column
    for mu in members:
        columns[mu] = {}
    for (lam, mu), f in counts.items():
        if f.terms and lam != mu:
            columns[mu][lam] = f
    # the terms of the nonzero off-diagonal decomposition numbers of each
    # row, by column: the ``.terms`` of stored values, only ever read
    row_dec = {}
    for mu, column in columns.items():
        entries[(mu, mu)] = characters[(mu, mu)] = ONE
        # (nu, terms of c(nu, mu)) for the solved nu != mu with c != 0
        support = []
        # by decreasing length, and lexicographically within a length
        for lam in sorted(sorted(column), key=length.__getitem__, reverse=True):
            if length[lam] >= length[mu]:
                raise InternalMismatch(
                    "path-counting oracle: weight %s is reached from mu=%s but "
                    "its alcove is not shorter" % (list(lam), list(mu))
                )
            f = column[lam]
            decs = row_dec.setdefault(lam, {})
            rest = None  # the row's remainder, copied from f at its first product
            for nu, c in support:
                d = decs.get(nu)
                if d is not None:
                    if rest is None:
                        rest = dict(f.terms)
                    subtract_product(rest, d, c)
            if rest is not None:
                f = from_terms(rest)
            try:
                char, dec = split_symmetric(f)
            except SplitImpossible as exc:
                raise InternalMismatch(
                    "path-counting oracle: %s at lambda=%s, mu=%s"
                    % (exc, list(lam), list(mu))
                ) from exc
            if dec:
                decs[mu] = dec.terms
            if char:
                support.append((lam, char.terms))
            entries[(lam, mu)] = dec
            characters[(lam, mu)] = char
    return DecompositionMatrix(block, entries, characters, counts)


def first_difference(a, b):
    """Where two DecompositionMatrix objects first differ, as (table name,
    lam, mu) with the smallest differing (lam, mu) of the first differing
    table, or None when they agree."""
    for name, x, y in [
        ("decomposition numbers", a.entries, b.entries),
        ("characters", a.characters, b.characters),
        ("standard dimensions", a.standard_dims, b.standard_dims),
    ]:
        if x == y:
            continue
        bad = [k for k in set(x) | set(y) if x.get(k, ZERO) != y.get(k, ZERO)]
        if bad:
            return (name,) + min(bad)
    return None


def matrices_equal(a, b):
    """Entrywise comparison of two DecompositionMatrix objects."""
    return first_difference(a, b) is None


def level2_label(params, p):
    """The alcove label of a regular 2-component weight: its length, primed
    when the weight sits on the far side of the dominant wall from the
    fundamental alcove."""
    if params.l != 2:
        raise NotLevelTwo("level-two labels need l = 2")
    geom = geometry_for(params)
    key = geom.alcove_of(p)
    return geom.length(key), key[0] < geom.fundamental[0]


def level2_closed_form(params, i, j):
    """Closed-form graded decomposition number for the l = 2 alcove labels
    i and j, ``(length, primed)`` pairs as ``level2_label`` returns them:
    t^(j - i) when the lengths strictly increase, 1 on the diagonal for
    identical labels, 0 otherwise."""
    if params.l != 2:
        raise NotLevelTwo("closed form needs l = 2")
    if i[0] < j[0]:
        return Laurent.term(j[0] - i[0])
    if i == j:
        return ONE
    return ZERO

