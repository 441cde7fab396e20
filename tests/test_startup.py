"""What a ``quivertl`` process loads at start-up, and the value classes
that are plain ``__slots__`` classes so that it loads less.

Importing ``quivertl.cli`` must not import ``dataclasses`` (nor the
``inspect`` module that it pulls in) or ``quivertl.svg``, which only the
``svg`` command uses.  ``Params``, ``Block`` and ``DecompositionMatrix``
keep the behaviour they had as dataclasses: the ``repr`` strings and
hashes below are those of the dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quivertl
from quivertl.decomposition import (
    Block,
    DecompositionMatrix,
    block_of,
    decomposition_matrix,
)
from quivertl.params import Params

RANK1 = Params(2, 4, (0, 2))
RANK1_BLOCK = (
    "Block(params=Params(l=2, e=4, kappa=(0, 2), n=None), n=3, "
    "members=((1, 2), (0, 3)), regular=(True, True), lengths=(0, 1))"
)


def test_cli_import_loads_neither_dataclasses_nor_svg():
    code = "\n".join([
        "import sys",
        "import quivertl.cli",
        "mods = ('dataclasses', 'inspect', 'quivertl.svg')",
        "print(' '.join(m for m in mods if m in sys.modules))",
    ])
    src = str(Path(quivertl.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


class TestParams:
    def test_repr_equality_and_hash(self):
        p = Params(3, 8, (0, 4, 6))
        assert repr(p) == "Params(l=3, e=8, kappa=(0, 4, 6), n=None)"
        assert repr(Params(2, 4, [0, 2], 5)) == "Params(l=2, e=4, kappa=(0, 2), n=5)"
        # kappa is normalised before it is compared or hashed
        same = Params(3, 8, (8, 12, 14))
        assert p == same and hash(p) == hash(same)
        assert hash(p) == hash((3, 8, (0, 4, 6), None))
        assert p != Params(3, 8, (0, 4, 6), 13)
        assert p != (3, 8, (0, 4, 6), None)
        assert len({p, same, Params(3, 8, (0, 4, 6), 13)}) == 2

    @pytest.mark.parametrize("name", ["l", "e", "kappa", "n", "other"])
    def test_fields_cannot_be_assigned(self, name):
        p = Params(3, 8, (0, 4, 6))
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p.kappa == (0, 4, 6)


class TestBlock:
    def test_repr_equality_and_hash(self):
        block = block_of(RANK1, 3, (0, 3))
        assert repr(block) == RANK1_BLOCK
        again = Block(RANK1, 3, ((1, 2), (0, 3)), (True, True), (0, 1))
        assert block == again and hash(block) == hash(again)
        assert hash(block) == hash(
            (block.params, block.n, block.members, block.regular, block.lengths)
        )
        assert block != Block(RANK1, 3, ((1, 2), (0, 3)), (True, True), (0, 2))

    def test_counts_take_no_part_in_equality_or_repr(self):
        block = block_of(RANK1, 3, (0, 3))
        fresh = block_of(RANK1, 3, (0, 3))
        decomposition_matrix(RANK1, block)
        assert block._counts and not fresh._counts
        assert block == fresh and hash(block) == hash(fresh)
        assert repr(block) == RANK1_BLOCK

    @pytest.mark.parametrize("name", ["members", "_counts"])
    def test_fields_cannot_be_assigned(self, name):
        block = block_of(RANK1, 3, (0, 3))
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(block, name, ())
        with pytest.raises(AttributeError):
            delattr(block, name)


class TestDecompositionMatrix:
    def test_repr_and_equality(self):
        block = block_of(RANK1, 3, (0, 3))
        empty = DecompositionMatrix(block, {}, {}, {})
        assert repr(empty) == (
            "DecompositionMatrix(block=%s, entries={}, characters={}, "
            "standard_dims={})" % RANK1_BLOCK
        )
        matrix = decomposition_matrix(RANK1, block)
        copy = DecompositionMatrix(
            block, dict(matrix.entries), dict(matrix.characters),
            dict(matrix.standard_dims),
        )
        assert matrix == copy and matrix != empty

    def test_mutable_and_unhashable(self):
        block = block_of(RANK1, 3, (0, 3))
        matrix = DecompositionMatrix(block, {}, {}, {})
        with pytest.raises(TypeError):
            hash(matrix)
        matrix.entries = {"changed": True}
        assert matrix.entries == {"changed": True}
