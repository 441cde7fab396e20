"""
Blocks and graded decomposition matrices.

A block of TL_n(kappa) is an orbit of the shifted affine Weyl group
action on one-column multipartitions of n.  For a block of regular
weights the graded decomposition numbers d and the graded standard-module
dimensions are computed by running the wall-crossing recursions along the
alcove series of each column's distinguished path, and the graded simple
characters by solving m = sum e(nu) * n_nu.  Two independent cross-checks
are built in:

* graded dimensions from the recursion must equal graded path counts,
* the whole matrix must equal the output of the path-counting oracle
  (``kn_oracle``), which uses nothing but graded path counts and the
  symmetric-plus-positive splitting of Laurent polynomials.

Both routes read the graded path counts, which are also the graded
standard dimensions, from one table per block (``_standard_dims``).  Each
column of it comes from the tableau-placement count of ``paths``; no
reflection closure is enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import compositions, geometry_for
from .laurent import Laurent, ONE, ZERO, split_symmetric
from .paths import alcove_series, distinguished_path, graded_path_count
from .soergel import InternalMismatch, run_all


class NoRegularMember(ValueError):
    """The block contains no regular weight."""


class NotLevelTwo(ValueError):
    """A level-two closed form was requested with l != 2."""


@dataclass(frozen=True)
class Block:
    """One orbit of one-column multipartitions of n, in a fixed order:
    by number of walls separating the weight from the fundamental alcove,
    then lexicographically."""

    params: object
    n: int
    members: tuple
    regular: tuple

    def regular_members(self):
        return [m for m, r in zip(self.members, self.regular) if r]

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "n": self.n,
            "members": [list(m) for m in self.members],
            "regular": list(self.regular),
        }


def _block(geom, params, n, members):
    members.sort(key=lambda q: (geom.point_length(q), q))
    return Block(
        params, n, tuple(members), tuple(geom.is_regular(q) for q in members)
    )


def blocks(params, n):
    """All blocks of TL_n(kappa), sorted by their first member."""
    geom = geometry_for(params)
    groups = {}
    for q in compositions(n, params.l):
        groups.setdefault(geom._orbit_key(q), []).append(q)
    out = [_block(geom, params, n, members) for members in groups.values()]
    out.sort(key=lambda b: b.members[0])
    return out


def block_of(params, n, member):
    """The block of TL_n(kappa) containing ``member``; only its own orbit
    is built."""
    member = tuple(member)
    geom = geometry_for(params)
    members = geom.orbit_points(member, n) if len(member) == params.l else []
    if member not in members:
        raise ValueError("%r is not a one-column multipartition of %d" % (member, n))
    return _block(geom, params, n, members)


@dataclass
class DecompositionMatrix:
    """Graded data of one block.

    ``entries[(lam, mu)]`` is the graded decomposition number d_{lam,mu},
    ``characters[(lam, mu)]`` the graded simple character of mu at lam,
    and ``standard_dims[(lam, mu)]`` the graded dimension of the
    mu-standard module at lam; all keys run over regular members, with
    standard_dims additionally defined for singular rows.
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
    (lam, mu): the graded standard dimensions."""
    return {
        (lam, mu): graded_path_count(params, lam, mu)
        for mu in block.members
        for lam in block.members
    }


def decomposition_matrix(params, block):
    """Graded decomposition data of a regular block via the wall-crossing
    recursions, cross-checked against graded path counts.
    """
    geom = geometry_for(params)
    regs = block.regular_members()
    if not regs:
        raise NoRegularMember("block %r has no regular member" % (block.members,))
    dims = _standard_dims(params, block)
    alcove = {lam: geom.alcove_of(lam) for lam in regs}
    entries = {}
    characters = {}
    for mu in regs:
        series = alcove_series(params, distinguished_path(params, mu))
        m_fn, n_fn, e_fn, target = run_all(params, series)
        if target != alcove[mu]:
            raise InternalMismatch("gallery did not end at the alcove of mu")
        for lam in regs:
            key = alcove[lam]
            if m_fn.value(key) != dims[(lam, mu)]:
                raise InternalMismatch(
                    "graded dimension mismatch at %r, %r: %s vs %s"
                    % (lam, mu, m_fn.value(key), dims[(lam, mu)])
                )
            entries[(lam, mu)] = n_fn.value(key)
            characters[(lam, mu)] = e_fn.value(key)
    return DecompositionMatrix(block, entries, characters, dims)


def kn_oracle(params, block):
    """The same decomposition data from path counting alone.

    For lam != mu with paths from mu to lam, the graded path count minus
    the already-known contributions of intermediate weights splits
    uniquely into a bar-symmetric part (the character value) plus a
    positively graded part (the decomposition number).  Pairs are
    resolved recursively on decreasing wall distance.
    """
    geom = geometry_for(params)
    regs = block.regular_members()
    if not regs:
        raise NoRegularMember("block %r has no regular member" % (block.members,))
    counts = _standard_dims(params, block)
    alcove = {lam: geom.alcove_of(lam) for lam in regs}
    length = {lam: geom.length(key) for lam, key in alcove.items()}
    memo = {}

    def solve(lam, mu):
        got = memo.get((lam, mu))
        if got is not None:
            return got
        if lam == mu:
            got = (ONE, ONE)
        elif not counts[(lam, mu)]:
            got = (ZERO, ZERO)
        else:
            f = counts[(lam, mu)]
            for nu in regs:
                if nu in (lam, mu):
                    continue
                if not counts.get((nu, mu)) or not counts.get((lam, nu)):
                    continue
                # paths out of nu only reach strictly shorter alcoves, so
                # the recursion descends in the length gap
                if not (length[lam] < length[nu] < length[mu]):
                    raise InternalMismatch(
                        "path-count recursion does not shrink the length gap"
                    )
                f = f - solve(lam, nu)[1] * solve(nu, mu)[0]
            got = split_symmetric(f)
        memo[(lam, mu)] = got
        return got

    pairs = sorted(
        ((lam, mu) for mu in regs for lam in regs),
        key=lambda p: (geom.separating_count(alcove[p[0]], alcove[p[1]]), p),
    )
    entries = {}
    characters = {}
    for lam, mu in pairs:
        char, dec = solve(lam, mu)
        entries[(lam, mu)] = dec if lam != mu else ONE
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
        bad = [k for k in set(x) | set(y) if x.get(k, ZERO) != y.get(k, ZERO)]
        if bad:
            return (name,) + min(bad)
    return None


def matrices_equal(a, b):
    """Entrywise comparison of two DecompositionMatrix objects."""
    return first_difference(a, b) is None


def stability_check(params, block, i):
    """Adding i boxes to every column preserves the decomposition data.

    The shifted block lives in TL_{n + i*l}(kappa); entries are compared
    through the member bijection lam -> lam + (i, ..., i).
    """
    shift = tuple(i for _ in range(params.l))

    def moved(p):
        return tuple(c + i for c in p)

    base = decomposition_matrix(params, block)
    big = block_of(params, block.n + i * params.l, moved(block.members[0]))
    if set(moved(m) for m in block.members) - set(big.members):
        return False
    shifted = decomposition_matrix(params, big)
    for (lam, mu), poly in base.entries.items():
        if shifted.d(moved(lam), moved(mu)) != poly:
            return False
    for (lam, mu), poly in base.characters.items():
        if shifted.character(moved(lam), moved(mu)) != poly:
            return False
    return True


def _parse_level2_label(label):
    if isinstance(label, tuple):
        return int(label[0]), bool(label[1])
    text = str(label).strip()
    primed = text.endswith("'")
    if primed:
        text = text[:-1]
    return int(text), primed


def level2_label(params, p):
    """The alcove label of a regular 2-component weight: its length, primed
    when the weight sits on the far side of the dominant wall from the
    fundamental alcove."""
    if params.l != 2:
        raise NotLevelTwo("level-two labels need l = 2")
    geom = geometry_for(params)
    key = geom.alcove_of(p)
    return geom.length(key), key.floors[0] < geom.fund_floors[0]


def level2_closed_form(params, i, j):
    """Closed-form graded decomposition number for l = 2 alcove labels:
    t^(j - i) when the lengths strictly increase, 1 on the diagonal for
    identical labels, 0 otherwise."""
    if params.l != 2:
        raise NotLevelTwo("closed form needs l = 2")
    li, pi = _parse_level2_label(i)
    lj, pj = _parse_level2_label(j)
    if li < lj:
        return Laurent.term(lj - li)
    if (li, pi) == (lj, pj):
        return ONE
    return ZERO


def level2_hom_dim(params, i, j):
    """Graded hom space dimension between level-two standard modules:
    t^(j - i) for strictly increasing lengths, 0 otherwise."""
    if params.l != 2:
        raise NotLevelTwo("hom dimensions need l = 2")
    li, _ = _parse_level2_label(i)
    lj, _ = _parse_level2_label(j)
    if li < lj:
        return Laurent.term(lj - li)
    return ZERO
