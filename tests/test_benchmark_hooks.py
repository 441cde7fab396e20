"""The names that the benchmark's tracer wraps stay bound in the package.

``perfbench/tracing.py`` patches spans and counters into module globals and
``Geometry`` methods; a refactor that unbinds one of them would otherwise
surface only as ``MissingHook`` in a traced benchmark run.  The file is read
and executed here, never imported, so no bytecode is written next to it.
"""

import types
from pathlib import Path

from quivertl import cli, decomposition, geometry, paths, soergel
from quivertl.decomposition import block_of, decomposition_matrix, kn_oracle
from quivertl.geometry import Geometry, geometry_for
from quivertl.params import Params
from quivertl.paths import alcove_series, distinguished_path
from quivertl.soergel import run_all

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
    # the ``paths.graded_path_count`` span and the ``paths_counted`` counter
    # wrap ``decomposition.graded_path_count``; however the counts are
    # memoised, every member pair (lam, mu) of a block must pass through it
    # once, in column order: the block's table is built once, from the
    # nonzero values the hook returned, and both routes read it
    params = Params(3, 8, (0, 4, 6))
    block = block_of(params, 13, (4, 9, 0))
    seen = []
    real = decomposition.graded_path_count

    def counted(params, lam, mu):
        f = real(params, lam, mu)
        seen.append(((lam, mu), f))
        return f

    monkeypatch.setattr(decomposition, "graded_path_count", counted)
    matrix = decomposition_matrix(params, block)
    oracle = kn_oracle(params, block)
    members = block.members
    assert [pair for pair, _ in seen] == [(lam, mu) for mu in members for lam in members]
    nonzero = {pair: f for pair, f in seen if f}
    assert matrix.standard_dims == nonzero == oracle.standard_dims
    assert len(nonzero) < len(seen)


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
        run_all(rank1, alcove_series(rank1, distinguished_path(rank1, (0, 40))))

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
