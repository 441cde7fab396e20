"""The names that the benchmark's tracer wraps stay bound in the package.

``perfbench/tracing.py`` patches spans and counters into module globals and
``Geometry`` methods; a refactor that unbinds one of them would otherwise
surface only as ``MissingHook`` in a traced benchmark run.  The file is read
and executed here, never imported, so no bytecode is written next to it.
"""

import random
import types
from pathlib import Path

from quivertl import cli, decomposition, geometry, paths, soergel
from quivertl.decomposition import block_of, decomposition_matrix, kn_oracle
from quivertl.geometry import Geometry, geometry_for
from quivertl.params import Params
from quivertl.paths import alcove_series, distinguished_path
from quivertl.soergel import run_all
from quivertl.tableaux import graded_tableau_counts

from helpers import gallery_along

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

OWNERS = {
    "cli": cli,
    "decomposition": decomposition,
    "paths": paths,
    "soergel": soergel,
    "geometry.Geometry": Geometry,
}


def load_tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_bound():
    tracing = load_tracing()
    hooks = [(mod, attr) for mod, attr, _ in tracing.SPANS]
    hooks += [(mod, attr) for mod, attr, _, _ in tracing.COUNTERS]
    assert hooks
    unbound = [
        "%s.%s" % (mod, attr)
        for mod, attr in hooks
        if OWNERS[mod].__dict__.get(attr) is None
    ]
    assert unbound == []


def test_every_count_passes_the_counting_hook(monkeypatch):
    # a block's counts are read one member column at a time, through
    # ``decomposition.class_counts``: every member column must pass through
    # it exactly once, in block order, over both routes, and the block's
    # table must be the nonzero ``paths.graded_path_count`` over every
    # member pair, and the DP's count from the empty tableau; the n=16
    # translate reads the tables that n=13 stored, shifted by (1, 1, 1)
    monkeypatch.setattr(geometry, "_GEOMETRIES", {})
    params = Params(3, 8, (0, 4, 6))
    real = decomposition.class_counts
    for n, member in [(13, (4, 9, 0)), (16, (5, 10, 1))]:
        block = block_of(params, n, member)
        seen = []

        def counted(params, mu):
            seen.append(mu)
            return real(params, mu)

        with monkeypatch.context() as m:
            m.setattr(decomposition, "class_counts", counted)
            matrix = decomposition_matrix(params, block)
            oracle = kn_oracle(params, block)
        members = block.members
        assert seen == list(members), n
        want = {
            (lam, mu): f
            for mu in members
            for lam in members
            if (f := paths.graded_path_count(params, lam, mu))
        }
        direct = {
            (lam, mu): f
            for mu in members
            for lam, f in graded_tableau_counts(params, mu).items()
        }
        assert matrix.standard_dims == want == direct == oracle.standard_dims, n
        assert len(members) < len(want) < len(members) ** 2


def test_every_n_function_passes_the_n_function_hook(monkeypatch):
    # the ``soergel.n_function`` span wraps the module global; the recursion
    # must look it up there, so that every alcove whose n is stored was
    # computed through the hook.  ``decomposition_matrix`` walks the
    # members by increasing length and on INTRO finds each neighbour's n
    # already stored; the lone long gallery makes the recursion descend.
    intro = Params(3, 8, (0, 4, 6))
    rank1 = Params(2, 4, (0, 2))

    def matrix():
        decomposition_matrix(intro, block_of(intro, 13, (4, 9, 0)))

    def long_gallery():
        word = alcove_series(rank1, distinguished_path(rank1, (0, 40)))
        run_all(rank1, gallery_along(rank1, word))

    for params, run in [(intro, matrix), (rank1, long_gallery)]:
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        seen = set()
        real = soergel.n_function

        def counted(geom, a):
            seen.add(a)
            return real(geom, a)

        with monkeypatch.context() as m:
            m.setattr(soergel, "n_function", counted)
            run()
        stored = geometry_for(params).caches["n_functions"]
        assert len(stored) > 1
        assert set(stored) <= seen


def test_traced_counts_do_not_depend_on_request_order(monkeypatch):
    # the benchmark requires each traced ``.calls`` count to repeat exactly
    # across request orders; the class records, the trie of galleries,
    # with the m and run of each node, and the n functions must make the
    # same calls whatever order fills them.  Every regular block of INTRO
    # at n = 10..16, of l=2 e=4 at n = 30..34 and of sweep's l=4 family at
    # n = 7..11, where each new record continues the longest stored prefix
    # of its loading, is requested (``block_of`` and both routes) on fresh
    # geometries in three orders, under the benchmark's own tracer
    intro = Params(3, 8, (0, 4, 6))
    rank1 = Params(2, 4, (0, 2))
    level4 = Params(4, 10, (0, 3, 5, 7))
    work = [
        (params, n, block.members[0])
        for params, ns in [
            (intro, range(10, 17)), (rank1, range(30, 35)), (level4, range(7, 12))
        ]
        for n in ns
        for block in decomposition.blocks(params, n)
        if block.regular[0]
    ]
    columns = sum(
        len(block_of(params, n, member).members) for params, n, member in work
    )
    shuffled = list(work)
    random.Random(5).shuffle(shuffled)
    names = (
        "geometry.star", "geometry.alcove_of", "soergel.run_all", "soergel.n_function"
    )
    tracing = load_tracing()
    counts = []
    for order in (work, work[::-1], shuffled):
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        tracer = tracing.Tracer()
        restore = tracer.install(OWNERS)
        tracer.on = True
        try:
            for params, n, member in order:
                block = decomposition.block_of(params, n, member)
                decomposition.decomposition_matrix(params, block)
                decomposition.kn_oracle(params, block)
        finally:
            tracer.on = False
            restore()
        summary = tracer.summary()
        counts.append({name: summary[name + ".calls"] for name in names})
    assert counts[0] == counts[1] == counts[2]
    assert all(counts[0].values())
    # route 1 takes each column's run through ``run_all``, which keeps it
    # on the column's gallery node
    assert counts[0]["soergel.run_all"] == columns
