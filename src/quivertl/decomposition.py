"""
Blocks and graded decomposition matrices.

A block of TL_n(kappa) is an orbit of the shifted affine Weyl group
action on one-column multipartitions of n: the points of n boxes with one
multiset of residues (coordinate + rho) mod e.  ``blocks`` groups every
point of n boxes by its multiset in one pass and ranks each group into a
block; ``block_of`` builds its member's orbit alone
(``Geometry.orbit_points``).  The block is regular exactly when its
residues are distinct.
For a block of regular weights the graded decomposition numbers d and
the graded standard-module dimensions are computed by running the
wall-crossing recursions along the alcove series of each column's
distinguished path, and the graded simple characters, with
m = sum e(nu) * n_nu, are carried along each gallery with m
(``soergel``).  Two independent cross-checks
are built in:

* graded dimensions from the recursion must equal graded path counts,
* the whole matrix must equal the output of the path-counting oracle
  (``kn_oracle``), which uses nothing but graded path counts, alcove
  lengths and the symmetric-plus-positive splitting of Laurent
  polynomials, solving the counts' factorisation as a triangular system.

Both routes read the graded path counts, which are also the graded
standard dimensions, from one table per block (``_standard_dims``), built
once per ``Block`` and copied for each route.  Each column of it is read
from the column's translation class record in ``paths``
(``class_counts``), and the block keeps the records it read, so that
route 1 takes each column's gallery (``paths.gallery_of``), a node of the
``Geometry``'s trie of galleries, from the same record.  No reflection closure is enumerated here.

The count table and the tables of a ``DecompositionMatrix`` hold nonzero
values only: a pair of members that is not a key has the value zero.
Each value in them is the canonical ``Laurent`` of its polynomial in the
``Geometry``'s value table (``laurent.canonical``): the counts from the
DP, the n and e of route 1 from ``soergel``, and the oracle's d and c.
Equal values are one object, shared by the tables, the memos and every
block of the same (l, e, kappa), so the check of m against the counts
and ``first_difference`` mostly compare by identity, and the oracle
solves each distinct short row once per ``Geometry``, keyed by the
identities of its inputs (``caches["oracle_rows"]``).  No caller may
change a stored value's ``.terms``.

A column's counts depend only on its translation class (``tableaux``,
translation lemma), and so does everything the oracle solves from them,
since a column's products read only its own rows and the columns of
those rows, solved before it and translated alike.  So each column with
a row that needed work (a product, a split or a lookup) is solved once
per ``Geometry`` and kept under its class record
(``caches["oracle_columns"]``), and a later block that holds a translate
of the class reads the column's d and c.  The memo is read and written
only when the oracle is given the block's own counts; ``kn_oracle`` has
the proof.

``Block`` is a ``params.FrozenFields`` class: hashable, its fields
read-only.  ``DecompositionMatrix`` is a ``params.Fields`` class: mutable
and unhashable.
"""

from __future__ import annotations

from collections import defaultdict

from .geometry import InternalMismatch, geometry_for
from .laurent import (
    Laurent,
    ONE,
    ZERO,
    SplitImpossible,
    canonical,
    from_terms,
    split_symmetric,
    subtract_product,
    value_table,
)
from .params import Fields, FrozenFields, _set
from .paths import (
    NotAdmissible,
    NotAGallery,
    # no longer called here: the benchmark's tracer still wraps these two
    # names in this module until ROADMAP item 1 hooks ``class_counts`` and
    # ``gallery_of`` instead
    alcove_series,
    class_counts,
    gallery_of,
    graded_path_count,
)
from .soergel import run_all


class NoRegularMember(ValueError):
    """The block contains no regular weight."""


class NotLevelTwo(ValueError):
    """A level-two closed form was requested with l != 2."""


class Block(FrozenFields):
    """One orbit of one-column multipartitions of n, in a fixed order:
    by number of walls separating the weight from the fundamental alcove
    (``lengths``, each member's ``Geometry.point_length``), then
    lexicographically.

    ``regular`` flags each member as regular.  The flags are all equal: a
    root value is a difference of two residues, so a member is regular
    exactly when the block's residues are distinct.  They stay one per
    member because the JSON report and the benchmark read them so.

    ``_counts``, the graded path counts between members, and ``_records``,
    the class record of each member in member order, are filled by
    ``_standard_dims``; they are not in ``_fields``, so they take no part
    in equality, hashing or ``repr``."""

    _fields = ("params", "n", "members", "regular", "lengths")
    __slots__ = _fields + ("_counts", "_records")

    def __init__(self, params, n, members, regular, lengths):
        _set(self, "params", params)
        _set(self, "n", n)
        _set(self, "members", members)
        _set(self, "regular", regular)
        _set(self, "lengths", lengths)
        _set(self, "_counts", {})
        _set(self, "_records", None)

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "n": self.n,
            "members": [list(m) for m in self.members],
            "regular": list(self.regular),
        }


def _block(geom, params, n, key, points):
    """The block of ``points``, the points of n boxes whose ``_orbit_key``
    is key, sorted once by (length, point)."""
    length = geom.point_length
    ranked = sorted([(length(q), q) for q in points])
    # empty only for the key of a point not of n boxes, which block_of refuses
    lengths, members = zip(*ranked) if ranked else ((), ())
    regular = len(set(key)) == len(key)
    return Block(params, n, members, (regular,) * len(members), lengths)


def _group_points(groups, head, keys, rest, rho, e):
    """Append every point head + tail, in which tail has nonnegative
    coordinates summing to ``rest``, to ``groups[key]`` for its sorted
    residues (coordinate + rho) mod e; ``keys`` holds the residues of
    head.  Each residue is taken as its coordinate is chosen, and the last
    coordinate takes what is left."""
    c = len(head)
    rc = rho[c]
    if c == len(rho) - 1:
        groups[tuple(sorted(keys + ((rest + rc) % e,)))].append(head + (rest,))
        return
    for v in range(rest + 1):
        _group_points(groups, head + (v,), keys + ((v + rc) % e,), rest - v, rho, e)


def blocks(params, n):
    """All blocks of TL_n(kappa), sorted by their first member: the points
    of n boxes grouped by their residue multiset in one pass
    (``_group_points``), each group ranked into its block."""
    geom = geometry_for(params)
    groups = defaultdict(list)
    _group_points(groups, (), (), n, geom.rho, geom.e)
    out = [_block(geom, params, n, key, points) for key, points in groups.items()]
    out.sort(key=lambda b: b.members[0])
    return out


def block_of(params, n, member):
    """The block of TL_n(kappa) containing ``member``; only its own orbit
    is built."""
    member = tuple(member)
    if len(member) == params.l:
        geom = geometry_for(params)
        key = geom._orbit_key(member)
        block = _block(geom, params, n, key, geom.orbit_points(key, n))
        if member in block.members:
            return block
    raise ValueError("%r is not a one-column multipartition of %d" % (member, n))


def _require_regular(block):
    if not block.regular[0]:
        raise NoRegularMember("block %r has no regular member" % (block.members,))


class DecompositionMatrix(Fields):
    """Graded data of one block.

    ``entries[(lam, mu)]`` is the graded decomposition number d_{lam,mu},
    ``characters[(lam, mu)]`` the graded simple character of mu at lam,
    and ``standard_dims[(lam, mu)]`` the graded dimension of the
    mu-standard module at lam; the block's members are all regular.  The
    routes store nonzero values only, and the accessors read a missing
    pair as ``ZERO``.
    """

    __slots__ = _fields = ("block", "entries", "characters", "standard_dims")

    def __init__(self, block, entries, characters, standard_dims):
        self.block = block
        self.entries = entries
        self.characters = characters
        self.standard_dims = standard_dims

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
    """The nonzero graded path counts between members of the block, keyed
    by (lam, mu): the graded standard dimensions.  They are read once per
    block into ``block._counts``, one ``class_counts`` call per member
    column in block order, each column's class table with its shapes
    shifted by +k*(1, ..., 1), and the records read are kept in
    ``block._records``; each call returns its own copy, which the caller
    may change.  A column's tableaux place the residues of mu, so every
    shape it reaches is a member of mu's block, and one that is not is the
    program's fault."""
    if not block._counts:
        # each shape keyed by its member tuple, so that no shifted copy is
        # kept
        members = {q: q for q in block.members}
        counts = {}
        records = []
        for mu in block.members:
            record, k = class_counts(params, mu)
            records.append(record)
            for shape, f in record.table.items():
                if k:
                    shape = tuple([x + k for x in shape])
                lam = members.get(shape)
                if lam is None:
                    raise InternalMismatch(
                        "count table of mu=%s reaches %s, which is not a member "
                        "of its block" % (list(mu), list(shape))
                    )
                counts[lam, mu] = f
        # built whole before it is stored: a column that raises leaves no
        # partial table behind
        block._counts.update(counts)
        _set(block, "_records", tuple(records))
    return dict(block._counts)


def decomposition_matrix(params, block):
    """Graded decomposition data of a regular block via the wall-crossing
    recursions, cross-checked against graded path counts.

    Each column's gallery is read off its class record, the one
    ``_standard_dims`` read (``gallery_of``; a path that is not a gallery
    is the program's fault), and run through ``run_all``.  The end alcove
    of each member's gallery, which its record checked against its
    endpoint's, is its row's alcove.

    Each column's m must equal the column's nonzero counts, keyed by the
    rows' alcoves: the counts this call was given, not a memo.  Only when
    the two differ are the members scanned in order, to name the first
    pair that differs.  n and e are read by one loop on their supports
    (alcoves that hold no member are skipped), so each column writes its
    nonzero values alone.
    """
    _require_regular(block)
    members = block.members
    dims = _standard_dims(params, block)
    runs = []
    alcove = {}
    member_at = {}
    columns = {}  # the nonzero counts of each column, by the row's alcove
    for mu, record in zip(members, block._records):
        try:
            gallery = gallery_of(params, mu, record)
        except (NotAdmissible, NotAGallery) as exc:
            raise InternalMismatch(
                "distinguished path of mu=%s: %s" % (list(mu), exc)
            ) from exc
        runs.append(run_all(params, gallery))
        a = alcove[mu] = gallery.end
        member_at[a] = mu
        columns[mu] = {}
    for (lam, mu), f in dims.items():
        if f.terms:
            columns[mu][alcove[lam]] = f
    entries = {}
    characters = {}
    for (mu, want), (m_fn, n_fn, e_fn) in zip(columns.items(), runs):
        if m_fn != want:
            # m may also hold alcoves of no member, which are not compared
            for lam in members:
                m = m_fn.get(alcove[lam], ZERO)
                count = dims.get((lam, mu), ZERO)
                if m != count:
                    raise InternalMismatch(
                        "recursion route: graded dimension mismatch at lambda=%s, "
                        "mu=%s: %s vs %s" % (list(lam), list(mu), m, count)
                    )
        for table, fn in ((entries, n_fn), (characters, e_fn)):
            for a, value in fn.items():
                lam = member_at.get(a)
                if lam is not None:
                    table[(lam, mu)] = value
    return DecompositionMatrix(block, entries, characters, dims)


# A row of the oracle is short when its lam has at most this many nonzero
# d(lam, nu) so far or its column at most this many nonzero c(nu, mu): it
# then subtracts at most this many products, and is looked up in the
# ``oracle_rows`` memo.  Longer rows are rare and mostly distinct:
# keeping every row kept 6 times as many entries at l=2 e=4 n=400 and 34
# times as many at l=3 e=8 n=75.  The two sizes tell a short row without
# a scan, where counting a row's products first scans the start of every
# long row twice.
_MEMO_PRODUCTS = 4


def _solve_row(values, count, rest, lam, mu):
    """(d, c) of the row of lam in column mu, each its canonical value or
    None for zero: the split of ``rest``, the count less the row's
    products as a term dict the caller gives up, or of ``count`` itself
    when ``rest`` is None.  A remainder with only positive exponents and
    coefficients, which this function tests before any split, is its own
    decomposition number and is not split."""
    terms = count.terms if rest is None else rest
    if terms and min(terms) > 0 and min(terms.values()) > 0:
        return (count if rest is None else canonical(values, rest)), None
    try:
        char, dec = split_symmetric(count if rest is None else from_terms(rest))
    except SplitImpossible as exc:
        raise InternalMismatch(
            "path-counting oracle: %s at lambda=%s, mu=%s"
            % (exc, list(lam), list(mu))
        ) from exc
    return (
        canonical(values, dec.terms) if dec.terms else None,
        canonical(values, char.terms) if char.terms else None,
    )


def _short_row(values, count, decs, support, lam, mu):
    """The ``oracle_rows`` entry (inputs, d, c) of a short row: the inputs
    are the count, then the terms of d(lam, nu) and of c(nu, mu) for each
    nu of ``support``, (nu, terms of c) pairs, that is in ``decs``
    (nu -> terms of d), in scan order."""
    inputs = [count]
    for nu, c in support:
        d = decs.get(nu)
        if d is not None:
            inputs += (d, c)
    rest = None
    if len(inputs) > 1:
        rest = dict(count.terms)
        for i in range(1, len(inputs), 2):
            subtract_product(rest, inputs[i], inputs[i + 1])
    return (tuple(inputs),) + _solve_row(values, count, rest, lam, mu)


def kn_oracle(params, block):
    """The same decomposition data from path counting alone.

    The counts factor as M = D*C with D unitriangular, its off-diagonal
    entries the decomposition numbers in tZ[t], and C the bar-symmetric
    characters.  Columns mu are solved in block order, which is by
    increasing alcove length (``Block.lengths``), and within a column the
    rows lam by decreasing length: the count minus
    the sum of d(lam, nu) * c(nu, mu) over the intermediate nu then splits
    uniquely into a bar-symmetric part (the character value) plus a
    positively graded part (the decomposition number).  Each count(mu, mu)
    must be 1, since D and C are unitriangular; one that is missing or is
    not 1 is the program's fault, found before any column is solved.

    Most counts are zero, and a zero count leaves both values zero, so a
    column's pass visits only its rows with a nonzero count, grouped by
    column in one pass over the counts as (rank, lam, count) triples and
    sorted once.  Most characters are zero, so the sum runs only over the
    nu of the column already solved with c(nu, mu) != 0, and multiplies
    only where d(lam, nu) != 0 (a row with no d yet, or a column with no c
    yet, skips the sum).  That is exact because each column checks, before
    it is solved, that its first row, the longest, is shorter than mu, so
    that every row is (paths out of mu only reach shorter alcoves): a
    nonzero d(lam, nu) * c(nu, mu) then needs
    length(lam) < length(nu) < length(mu), so both of its factors are
    solved before the pair (lam, mu).

    Every count, d and c is the canonical value of its polynomial
    (``laurent.canonical``), so a row's d and c depend only on the
    identities of its count and of the (d(lam, nu), c(nu, mu)) pairs it
    subtracts, and the same few inputs recur across rows, columns and
    blocks.  A short row, whose lam has at most ``_MEMO_PRODUCTS`` nonzero
    d so far or whose column has at most that many nonzero c, and which
    so has at most that many products, is solved once per ``Geometry``:
    ``caches["oracle_rows"]`` maps the ids of its inputs (the count, then
    the terms of each d and c in the order of the scan) to (inputs, d, c),
    the entry keeping the inputs so that no id is reused, and d or c None
    for zero.  Only a row that is solved is kept.  Any other row is
    solved whenever its column is, and is not kept there.  Either way the
    products are subtracted with one fused multiply-subtract
    (``subtract_product``) per nu with nonzero d(lam, nu) and c(nu, mu),
    on the row's remainder as a term dict copied from the count (the
    count's own terms are never changed).

    Most rows have a zero character.  A row with no products whose count
    has only positive exponents and coefficients (the positivity test that
    ``_solve_row`` makes, made here on the count's terms) is its own
    decomposition number: its d is the count object itself, with no
    lookup.  Every other row is solved by ``_solve_row``
    (a positive remainder is its canonical value, anything else is split
    with ``split_symmetric``); a remainder that cancelled to zero stores
    neither value.

    A column's d and c depend only on its translation class, so each
    column is solved once per ``Geometry``: ``caches["oracle_columns"]``
    maps the column's class record (``block._records``) to the d and c of
    its off-diagonal rows with a nonzero count, in the order the rows are
    solved, from the first row that needed work on, as one flat list
    (d, c, d, c, ...) of stored values, None for zero; the rows before it
    are their own counts, with no character.  A block that holds a
    translate of the class reads the column's d and c from it instead of
    solving it.  That is exact, by induction on the length of mu:

    * The rows of mu's column are its class table's shapes, shifted by
      min(mu)*(1, ..., 1), with the same counts (``tableaux``, translation
      lemma).  The shift leaves root values, and so lengths, unchanged,
      and keeps the lexicographic order, so the rows are solved in the
      same order in every block that holds the class.
    * The products of the row of lam use only c(nu, mu) of rows nu of
      mu's column and d(lam, nu) of columns nu that are such rows.  Each
      such nu is shorter than mu and is solved earlier in block order, so
      by induction its column is its class's column.
    * A translate block can hold more members than the shifted block, but
      none of the extra members is a row of a translated column, so none
      of them enters its solve.

    The memo is read and written only when the counts this call was given
    are the block's own (``counts == block._counts``: a dict compare in C,
    by identity first); changed counts are solved, and their columns are
    never kept.  A column is kept only when one of its rows needed work,
    a product, a split or a lookup: solving again a column whose rows are
    all their own counts costs one positivity test per row.  Nothing is
    recorded for a column until its first row that needs work.
    """
    _require_regular(block)
    counts = _standard_dims(params, block)
    geom = geometry_for(params)
    values = value_table(geom)
    caches = geom.caches
    memo = caches.get("oracle_rows")
    if memo is None:
        memo = caches["oracle_rows"] = {}
    # the solved columns are read and kept only for the block's own counts
    if counts == block._counts:
        column_memo = caches.get("oracle_columns")
        if column_memo is None:
            column_memo = caches["oracle_columns"] = {}
        records = block._records
    else:
        column_memo = None
    members = block.members
    length = dict(zip(members, block.lengths))
    # each member's place in the row order (by decreasing length, and
    # lexicographically within a length); the nonzero off-diagonal counts
    # of each column, as (rank, lam, count); and the terms of the nonzero
    # off-diagonal decomposition numbers of each row, by column: the
    # ``.terms`` of stored values, only ever read
    rank = {}
    columns = {}
    row_dec = {}
    for i, (_, lam) in enumerate(sorted(zip([-k for k in block.lengths], members))):
        rank[lam] = i
        columns[lam] = []
        row_dec[lam] = {}
    entries = {}
    characters = {}
    ones = 0  # the diagonal counts that are the stored 1
    for (lam, mu), f in counts.items():
        if f.terms and lam != mu:
            columns[mu].append((rank[lam], lam, f))
        elif f is ONE:
            ones += 1
    if ones < len(members):
        # some diagonal count is missing or is not 1
        for mu in members:
            diagonal = counts.get((mu, mu), ZERO)
            if diagonal != ONE:
                raise InternalMismatch(
                    "path-counting oracle: the count of mu=%s at itself is %s, "
                    "not 1" % (list(mu), diagonal)
                )
    cap = _MEMO_PRODUCTS
    for i, mu in enumerate(members):
        entries[(mu, mu)] = characters[(mu, mu)] = ONE
        # taken out, so that a solved column's triples are freed; the ranks
        # are distinct, so no lam or count is compared
        column = columns.pop(mu)
        if not column:
            continue
        column.sort()
        # the first row is the longest
        lam = column[0][1]
        if length[lam] >= length[mu]:
            raise InternalMismatch(
                "path-counting oracle: weight %s is reached from mu=%s but "
                "its alcove is not shorter" % (list(lam), list(mu))
            )
        if column_memo is not None:
            record = records[i]
            kept = column_memo.get(record)
            if kept is not None:
                # the rows before the first that needed work are their own d
                own = len(column) - len(kept) // 2
                for _, lam, count in column[:own]:
                    row_dec[lam][mu] = count.terms
                    entries[(lam, mu)] = count
                pairs = iter(kept)
                for (_, lam, _), dec, char in zip(column[own:], pairs, pairs):
                    if dec is not None:
                        row_dec[lam][mu] = dec.terms
                        entries[(lam, mu)] = dec
                    if char is not None:
                        characters[(lam, mu)] = char
                continue
        # (nu, terms of c(nu, mu)) for the solved nu != mu with c != 0
        support = []
        # each row's d and c for the column memo, from the first row that
        # needed work on
        kept = None
        for _, lam, count in column:
            decs = row_dec[lam]
            key = None  # the ids of a short row's inputs
            rest = None  # the remainder of a row that is not short
            if decs and support:
                if len(decs) > cap < len(support):
                    # not short: subtracted as it is scanned, and not kept in
                    # ``oracle_rows``
                    get = decs.get
                    for nu, c in support:
                        d = get(nu)
                        if d is not None:
                            if rest is None:
                                rest = dict(count.terms)
                            subtract_product(rest, d, c)
                else:
                    for nu, c in support:
                        d = decs.get(nu)
                        if d is not None:
                            if key is None:
                                key = (id(count), id(d), id(c))
                            else:
                                key += (id(d), id(c))
            if rest is not None:
                dec, char = _solve_row(values, count, rest, lam, mu)
            else:
                if key is None:
                    terms = count.terms
                    if min(terms) > 0 and min(terms.values()) > 0:
                        decs[mu] = terms
                        entries[(lam, mu)] = count
                        if kept is not None:
                            kept.append(count)
                            kept.append(None)
                        continue
                    key = (id(count),)
                row = memo.get(key)
                if row is None:
                    row = memo[key] = _short_row(values, count, decs, support, lam, mu)
                _, dec, char = row
            if kept is None:
                kept = []
            kept.append(dec)
            kept.append(char)
            if dec is not None:
                decs[mu] = dec.terms
                entries[(lam, mu)] = dec
            if char is not None:
                support.append((lam, char.terms))
                characters[(lam, mu)] = char
        if kept is not None and column_memo is not None:
            column_memo[record] = kept
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

