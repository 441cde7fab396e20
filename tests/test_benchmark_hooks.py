"""The names that the benchmark's tracer wraps stay bound in the package.

``perfbench/tracing.py`` patches spans and counters into module globals and
``Geometry`` methods; a refactor that unbinds one of them would otherwise
surface only as ``MissingHook`` in a traced benchmark run.  The file is read
and executed here, never imported, so no bytecode is written next to it.
"""

import types
from pathlib import Path

from quivertl import cli, decomposition, paths, soergel
from quivertl.decomposition import block_of, decomposition_matrix, kn_oracle
from quivertl.geometry import Geometry
from quivertl.params import Params

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
    # memoised, both routes must read every (lam, mu) entry through it
    params = Params(3, 8, (0, 4, 6))
    block = block_of(params, 13, (4, 9, 0))
    seen = []
    real = decomposition.graded_path_count

    def counted(params, lam, mu):
        seen.append((lam, mu))
        return real(params, lam, mu)

    monkeypatch.setattr(decomposition, "graded_path_count", counted)
    matrix = decomposition_matrix(params, block)
    assert seen == list(matrix.standard_dims)
    oracle = kn_oracle(params, block)
    assert seen == 2 * list(oracle.standard_dims)
    assert len(matrix.standard_dims) == len(block.members) ** 2
