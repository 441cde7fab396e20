"""Command line interface: exit codes, determinism, output formats."""

import errno
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quivertl
from quivertl import cli, decomposition, geometry, paths
from quivertl.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main
from quivertl.decomposition import (
    DecompositionMatrix,
    block_of,
    decomposition_matrix,
    kn_oracle,
)
from quivertl.laurent import Laurent, ZERO
from quivertl.params import Params

from helpers import reference_render_matrix_table

INTRO = ["--l", "3", "--e", "8", "--kappa", "0,4,6", "--n", "13"]
RANK1 = ["--l", "2", "--e", "4", "--kappa", "0,2", "--n", "11"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_success(self, capsys):
        code, _ = run(capsys, ["blocks"] + RANK1)
        assert code == EXIT_OK

    def test_bad_multicharge(self, capsys):
        # adjacent residues, and a residue that is not an integer
        for kappa in ["0,1", "0,x"]:
            code, _ = run(capsys, ["blocks", "--l", "2", "--e", "4",
                                   "--kappa", kappa, "--n", "5"])
            assert code == EXIT_CONFIG

    def test_bad_multipartition(self, capsys):
        # a part that is not an integer, the wrong number of parts and a
        # negative part (given as --mu=..., or argparse takes it for an
        # option)
        for argv, message in [
            (["paths"] + RANK1 + ["--lambda", "0,x", "--mu", "0,11"],
             "bad multipartition '0,x'"),
            (["decompose"] + RANK1 + ["--mu", "0,11,0"],
             "'0,11,0' needs 2 nonnegative parts"),
            (["decompose"] + RANK1 + ["--mu=-1,12"],
             "'-1,12' needs 2 nonnegative parts"),
            (["svg"] + RANK1 + ["--mu=12,-1"], "'12,-1' needs 2 nonnegative parts"),
        ]:
            assert main(argv) == EXIT_CONFIG
            assert message in capsys.readouterr().err
        # with a space, argparse rejects the option before the program sees it
        with pytest.raises(SystemExit) as exc:
            main(["decompose"] + RANK1 + ["--mu", "-1,12"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --mu: expected one argument" in err
        assert "Traceback" not in err

    def test_wrong_box_count(self, capsys):
        for argv in [
            ["paths"] + RANK1 + ["--lambda", "0,10", "--mu", "0,11"],
            ["decompose"] + RANK1 + ["--mu", "0,10"],
            ["svg"] + RANK1 + ["--mu", "0,10"],
            ["svg"] + RANK1 + ["--lambda", "4,6", "--mu", "0,11"],
        ]:
            code, _ = run(capsys, argv)
            assert code == EXIT_CONFIG

    def test_svg_empty_lambda_is_a_bad_multipartition(self, capsys, tmp_path):
        # an empty --lambda is rejected as for paths, not read as absent
        # (which would draw mu's paths to itself)
        argv = ["svg", "--l", "2", "--e", "4", "--kappa", "0,2", "--n", "4",
                "--mu", "2,2", "--lambda="]
        target = tmp_path / "paths.svg"
        for extra in ([], ["--out", str(target)]):
            assert main(argv + extra) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: bad multipartition ''" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_svg_rank_too_high(self, capsys):
        code, out = run(capsys, ["svg", "--l", "4", "--e", "8", "--kappa",
                                 "0,2,4,6", "--n", "13", "--mu", "3,3,3,4"])
        assert code == EXIT_CONFIG
        assert out == ""

    def test_budget_exceeded(self, capsys):
        code, _ = run(capsys, ["paths"] + INTRO +
                      ["--lambda", "4,6,3", "--mu", "4,9,0", "--budget", "4"])
        assert code == EXIT_BUDGET

    def test_budget_holds_with_a_cached_closure(self, capsys, monkeypatch):
        # for each input the budget stops the closure uncached; then a run
        # without it caches the whole closure, and the budget must still
        # stop it.  The l = 2, n = 2 closure of mu = (1, 1) is one path.
        one_path = ["--l", "2", "--e", "4", "--kappa", "0,2", "--n", "2",
                    "--lambda", "1,1", "--mu", "1,1"]
        for argv, budget in [
            (INTRO + ["--lambda", "4,6,3", "--mu", "4,9,0"], "4"),
            (one_path, "0"),
            (one_path, "-3"),
        ]:
            with monkeypatch.context() as m:
                m.setattr(geometry, "_GEOMETRIES", {})
                argv = ["paths"] + argv
                assert run(capsys, argv + ["--budget", budget])[0] == EXIT_BUDGET
                assert run(capsys, argv)[0] == EXIT_OK
                assert run(capsys, argv + ["--budget", budget])[0] == EXIT_BUDGET

    def test_singular_block_is_config_error(self, capsys):
        # (4,7,2) lies on a wall, so its block has no regular member
        code, _ = run(capsys, ["decompose"] + INTRO + ["--mu", "4,7,2"])
        assert code == EXIT_CONFIG


class TestOutputs:
    def test_paths_json(self, capsys):
        code, out = run(capsys, ["paths"] + INTRO +
                        ["--lambda", "4,6,3", "--mu", "4,9,0",
                         "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert sorted(p["degree"] for p in report["paths"]) == [1, 3]

    def test_decompose_json(self, capsys):
        # (0, 19) at n = 19 has a gallery of length 5
        for argv, member in [
            (INTRO + ["--mu", "4,9,0"], [4, 6, 3]),
            (["--l", "2", "--e", "4", "--kappa", "0,2", "--n", "19",
              "--mu", "0,19"], [0, 19]),
        ]:
            code, out = run(capsys, ["decompose"] + argv + ["--format", "json"])
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["cross_checked"] is True
            assert member in report["block"]["members"]

    def test_decompose_json_level_four(self, capsys):
        code, out = run(capsys, ["decompose", "--l", "4", "--e", "8",
                                 "--kappa", "0,2,4,6", "--n", "13",
                                 "--mu", "3,3,3,4", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["cross_checked"] is True

    def test_decompose_json_is_indent_2_dumps(self, capsys):
        # the report is rendered as text: its bytes must be those of
        # json.dumps(matrix.to_json() plus cross_checked, indent=2)
        for l, e, kappa, n, mu, oracle in [
            (3, 8, (0, 4, 6), 13, (4, 9, 0), "on"),
            (2, 4, (0, 2), 11, (0, 11), "on"),
            (4, 8, (0, 2, 4, 6), 13, (3, 3, 3, 4), "on"),
            # the largest block of the wide-l3 benchmark workload
            (3, 6, (0, 2, 4), 22, (7, 7, 8), "on"),
            (3, 8, (0, 4, 6), 13, (4, 9, 0), "off"),
            # one member: no off-diagonal entries
            (3, 8, (0, 4, 6), 1, (0, 0, 1), "on"),
        ]:
            code, out = run(capsys, [
                "decompose", "--l", str(l), "--e", str(e),
                "--kappa", ",".join(map(str, kappa)), "--n", str(n),
                "--mu", ",".join(map(str, mu)), "--oracle", oracle,
                "--format", "json",
            ])
            assert code == EXIT_OK
            params = Params(l, e, kappa, n)
            report = decomposition_matrix(params, block_of(params, n, mu)).to_json()
            report["cross_checked"] = oracle == "on"
            assert out == json.dumps(report, indent=2) + "\n"
        # tables with no entry at all render as []
        block = block_of(Params(3, 8, (0, 4, 6), 1), 1, (0, 0, 1))
        empty = DecompositionMatrix(block, {}, {}, {})
        report = empty.to_json() | {"cross_checked": False}
        text = "".join(cli._render_matrix_json(empty, False))
        assert text == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("data", [
        [], {}, [[], {}], [True, False, 0, -3, [7]],
        {"a": {"b": [1, [2, {}]], "c": True}, "d": -1},
    ])
    def test_indented_is_json_dumps(self, data):
        # the report's own renderer, on the shapes json.dumps could meet
        for depth in range(3):
            want = json.dumps(data, indent=2).replace("\n", "\n" + "  " * depth)
            assert cli._indented(data, depth) == want

    def test_report_order_does_not_follow_insertion_order(self):
        # the report lists each table sorted by (lambda, mu), however its
        # dict was filled; a block whose tables hold only ZERO renders []
        params = Params(3, 8, (0, 4, 6), 13)
        block = block_of(params, 13, (4, 9, 0))
        oracle = kn_oracle(params, block)
        tables = (oracle.entries, oracle.characters, oracle.standard_dims)
        backwards = DecompositionMatrix(
            block, *(dict(reversed(t.items())) for t in tables)
        )
        assert list(backwards.entries) != sorted(backwards.entries)
        zero = DecompositionMatrix(
            block, *(dict.fromkeys(oracle.entries, ZERO) for _ in tables)
        )
        for matrix, checked in [(oracle, True), (backwards, False), (zero, True)]:
            report = matrix.to_json() | {"cross_checked": checked}
            text = "".join(cli._render_matrix_json(matrix, checked))
            assert text == json.dumps(report, indent=2) + "\n"
        text = "".join(cli._render_matrix_json(zero, True))
        assert '"decomposition_numbers": [],' in text

    # blocks at levels 2 to 5, and an INTRO block with the oracle off
    REPORTS = [
        (2, 4, (0, 2), 20, (10, 10), "on"),
        (3, 8, (0, 4, 6), 13, (4, 9, 0), "on"),
        (3, 8, (0, 4, 6), 13, (4, 6, 3), "off"),
        (4, 8, (0, 2, 4, 6), 12, (3, 3, 3, 3), "on"),
        (5, 10, (0, 2, 4, 6, 8), 10, (2, 2, 2, 2, 2), "on"),
    ]

    @pytest.mark.parametrize("l, e, kappa, n, mu, oracle", REPORTS)
    def test_report_file_is_the_dumps_of_the_matrix(
        self, capsys, tmp_path, l, e, kappa, n, mu, oracle
    ):
        # the report as ``_emit`` writes it to --out, table by table, has
        # the bytes of ``json.dumps`` of the whole report, indent 2, and a
        # newline
        target = tmp_path / "report.json"
        code = main([
            "decompose", "--l", str(l), "--e", str(e),
            "--kappa", ",".join(map(str, kappa)), "--n", str(n),
            "--mu", ",".join(map(str, mu)), "--oracle", oracle,
            "--format", "json", "--out", str(target),
        ])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "")
        params = Params(l, e, kappa, n)
        matrix = decomposition_matrix(params, block_of(params, n, mu))
        report = matrix.to_json() | {"cross_checked": oracle == "on"}
        assert matrix.entries and matrix.characters
        assert target.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()

    def test_report_is_written_one_table_at_a_time(self, monkeypatch):
        # standard output receives the report as nine strings, each table
        # one of them, each rendered only after the strings before it were
        # written; an empty table is written as []
        class Stream:
            def __init__(self):
                self.pieces = []

            def writelines(self, parts):
                for part in parts:
                    self.pieces.append(part)

            def flush(self):
                pass

        params = Params(3, 8, (0, 4, 6), 13)
        block = block_of(params, 13, (4, 9, 0))
        empty = DecompositionMatrix(block, {}, {}, {})
        for matrix, checked in [(decomposition_matrix(params, block), True),
                                (empty, False)]:
            stream = Stream()
            made = []

            def parts():
                for part in cli._render_matrix_json(matrix, checked):
                    # every string made before this one is written
                    assert stream.pieces == made
                    made.append(part)
                    yield part

            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", stream)
                cli._emit(parts(), None)
            report = matrix.to_json() | {"cross_checked": checked}
            whole = json.dumps(report, indent=2) + "\n"
            assert "".join(stream.pieces) == whole
            assert len(stream.pieces) == 9
            assert max(map(len, stream.pieces)) < len(whole)
            tables = stream.pieces[3:8:2]
            assert all(t[0] == "[" and t[-1] == "]" for t in tables)
            if matrix is empty:
                assert tables == ["[]", "[]", "[]"]

    def test_decompose_table_bytes(self, capsys):
        # the table reports of four blocks, pinned by their sha256
        for argv, digest in [
            (INTRO + ["--mu", "4,9,0"],
             "e01d30ba44fd4165626540bb443db5794c9dcc4a07d108b77a89f5f4221abc93"),
            (RANK1 + ["--mu", "0,11"],
             "943945446faede194c7d6f33e74c1844f488b38448aa54cb0aad6ff5c0141036"),
            (["--l", "4", "--e", "8", "--kappa", "0,2,4,6", "--n", "13",
              "--mu", "3,3,3,4"],
             "e49352eda79c4f050468035cda13a26610c52b2046470c25b280574e32c53e52"),
            (["--l", "3", "--e", "8", "--kappa", "0,4,6", "--n", "1",
              "--mu", "0,0,1"],
             "e19b8af1fe33f3ffb0dcd140f70d3e39e450319577b22316ca7852cf8d01585e"),
        ]:
            code, out = run(capsys, ["decompose"] + argv + ["--format", "table"])
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_blocks_and_paths_json_bytes(self, capsys):
        # each report is json.dumps of the library's data, indent 2, and a
        # newline, and its bytes are pinned by their sha256; no closure
        # path of (4, 9, 0) ends at (13, 0, 0), so that report's list is
        # empty
        params = Params(3, 8, (0, 4, 6), 13)
        found = decomposition.blocks(params, 13)
        want = {"params": params.to_json(), "n": 13,
                "blocks": [b.to_json() for b in found]}
        cases = [(["blocks"], want,
                  "89a1ffce4944df5095a35585bcd97829c4975c7e98e5eb4f8bdc151efbdc7f29")]
        for lam, count, digest in [
            ((4, 6, 3), 2,
             "6bcd674c56d56afdbb4272d195bc5fbcaf37465815b51fa2696c4c8a6fc06564"),
            ((13, 0, 0), 0,
             "ff803af11aec48e60db8f16ae9493491b79b0b838bc412e9e95740c20cce5289"),
        ]:
            found = paths.paths_between(params, lam, (4, 9, 0))
            assert len(found) == count
            want = {"params": params.to_json(), "lambda": list(lam), "mu": [4, 9, 0],
                    "paths": [{"steps": list(p.steps), "degree": d} for p, d in found]}
            argv = ["paths", "--lambda", ",".join(map(str, lam)), "--mu", "4,9,0"]
            cases.append((argv, want, digest))
        for argv, want, digest in cases:
            code, out = run(capsys, argv[:1] + INTRO + argv[1:] + ["--format", "json"])
            assert (code, out) == (EXIT_OK, json.dumps(want, indent=2) + "\n")
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_table_renderer_matches_the_reference(self):
        # the table report reads each cell by key and renders each distinct
        # polynomial once; its bytes are those of the cell-by-cell
        # reference, also for a sparse table (a missing key is a zero
        # cell) and for negative coefficients
        l3 = Params(3, 6, (0, 2, 4))
        cases = [
            (Params(3, 8, (0, 4, 6)), 13, (4, 9, 0)),
            (Params(2, 4, (0, 2)), 11, (0, 11)),
            (l3, 21, (6, 7, 8)),
            (Params(4, 8, (0, 2, 4, 6)), 13, (3, 3, 3, 4)),
        ]
        for params, n, mu in cases:
            block = block_of(params, n, mu)
            matrix = decomposition_matrix(params, block)
            if params is l3:
                assert len(block.members) == 44
            text = "".join(cli._render_matrix_table(matrix))
            assert text == reference_render_matrix_table(matrix), (params, mu)
        lam, mu = block.members[0], block.members[-1]
        sparse = DecompositionMatrix(
            block,
            {k: v for k, v in matrix.entries.items() if k != (lam, mu)},
            dict(matrix.characters) | {(mu, lam): Laurent({-2: -3, 1: 1})},
            dict(matrix.standard_dims) | {(lam, lam): ZERO},
        )
        text = "".join(cli._render_matrix_table(sparse))
        assert text == reference_render_matrix_table(sparse)
        assert "-3*t^-2 + t" in text

    def test_table_report_is_streamed_line_by_line(self):
        # the renderer yields one line at a time, the header and the rows
        # of each table after its title, and the lines join to the bytes
        # of the cell-by-cell reference; the 91-member block's report is
        # also pinned by its sha256
        for params, n, mu, digest in [
            (Params(3, 8, (0, 4, 6)), 13, (4, 9, 0), None),
            (Params(2, 4, (0, 2)), 11, (0, 11), None),
            (Params(3, 6, (0, 2, 4)), 31, (10, 10, 11),
             "77be3dc88dc113438ffeae6c8f3cada3769be08f96d6495bcebe61b6f59efdf0"),
        ]:
            block = block_of(params, n, mu)
            matrix = decomposition_matrix(params, block)
            lines = list(cli._render_matrix_table(matrix))
            assert len(lines) == 1 + 3 * (2 + len(block.members))
            assert all(line.count("\n") == 1 and line[-1] == "\n" for line in lines)
            text = "".join(lines)
            assert text == reference_render_matrix_table(matrix), mu
            if digest:
                assert len(block.members) == 91
                assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_mismatch_names_table_and_pair(self, capsys, monkeypatch):
        real = cli.kn_oracle

        def tampered(params, block):
            matrix = real(params, block)
            matrix.characters[((4, 6, 3), (4, 9, 0))] = Laurent.term(0, 2)
            return matrix

        monkeypatch.setattr(cli, "kn_oracle", tampered)
        code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
        err = capsys.readouterr().err
        assert code == EXIT_MISMATCH
        assert "characters at lambda=[4, 6, 3], mu=[4, 9, 0]" in err

    def test_oracle_failure_names_route_and_pair(self, capsys, monkeypatch):
        # route 1 reads the true counts; only the oracle sees the tampered one
        real_dims = decomposition._standard_dims
        real_oracle = cli.kn_oracle
        for pair, poly, expected in [
            # no bar-symmetric plus positive split exists
            (((4, 6, 3), (4, 9, 0)), Laurent.term(-3, 7),
             "decomposition of 7*t^-3 - t at lambda=[4, 6, 3], mu=[4, 9, 0]"),
            # (5, 6, 2) now reaches (2, 8, 3), whose alcove is as long
            (((2, 8, 3), (5, 6, 2)), Laurent.term(1),
             "weight [2, 8, 3] is reached from mu=[5, 6, 2] but its alcove "
             "is not shorter"),
        ]:
            def dims(params, block):
                counts = real_dims(params, block)
                counts[pair] = poly
                return counts

            def oracle(params, block):
                with monkeypatch.context() as m:
                    m.setattr(decomposition, "_standard_dims", dims)
                    return real_oracle(params, block)

            monkeypatch.setattr(cli, "kn_oracle", oracle)
            code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
            err = capsys.readouterr().err
            assert code == EXIT_MISMATCH
            assert "path-counting oracle" in err
            assert expected in err

    def test_geometry_check_failure_is_a_mismatch(self, capsys, monkeypatch):
        # the level check of Geometry.star fails at the fundamental alcove,
        # (0, 0, 0), of a fresh Geometry whose wall of type 0 is one level
        # below its true (0, 1, 0); the gallery check of alcove_series would
        # see it first, so it reads the wall types of an untouched Geometry
        params = Params(3, 8, (0, 4, 6), 13)
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        g = geometry.geometry_for(params)
        monkeypatch.setattr(g, "wall_type", geometry.Geometry(params).wall_type)
        walls = list(g._walls)
        walls[0] = (0, 1, -1)
        monkeypatch.setitem(g._wall_memo, g.fundamental, tuple(walls))
        code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
        err = capsys.readouterr().err
        assert code == EXIT_MISMATCH
        assert "wall (0, 1, -1) of type 0 does not bound alcove (0, 0, 0)" in err
        assert "Traceback" not in err

    def test_recursion_failure_names_route_and_pair(self, capsys, monkeypatch):
        # the oracle reads the true counts; only route 1 sees the tampered one
        real_dims = decomposition._standard_dims
        real_matrix = cli.decomposition_matrix

        def dims(params, block):
            counts = real_dims(params, block)
            counts[((4, 6, 3), (4, 9, 0))] = Laurent.term(0, 5)
            return counts

        def matrix(params, block):
            with monkeypatch.context() as m:
                m.setattr(decomposition, "_standard_dims", dims)
                return real_matrix(params, block)

        monkeypatch.setattr(cli, "decomposition_matrix", matrix)
        code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
        err = capsys.readouterr().err
        assert code == EXIT_MISMATCH
        assert err == (
            "error: recursion route: graded dimension mismatch at "
            "lambda=[4, 6, 3], mu=[4, 9, 0]: t + t^3 vs 5\n"
        )

    def test_gallery_failure_is_a_mismatch(self, capsys, monkeypatch):
        # a distinguished path whose gallery check fails is the program's
        # fault, not the caller's: exit 3 naming mu, not exit 2
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        g = geometry.geometry_for(Params(3, 8, (0, 4, 6)))
        monkeypatch.setattr(g, "wall_type", lambda a, h: None)
        code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
        err = capsys.readouterr().err
        assert code == EXIT_MISMATCH
        assert (
            "distinguished path of mu=[2, 8, 3]: hyperplane "
            "(0, 1, 0) does not bound alcove (0, 0, 0)"
        ) in err

    def test_count_table_outside_the_block_is_a_mismatch(self, capsys, monkeypatch):
        # a column's counts reach only members of its block; a class table
        # that reaches another shape is the program's fault: exit 3 naming
        # mu and the shape
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        params = Params(3, 8, (0, 4, 6))
        members = block_of(params, 13, (4, 9, 0)).members
        assert (12, 1, 0) in members and (12, 0, 1) not in members
        record, k = paths.class_counts(params, (4, 9, 0))
        assert k == 0
        monkeypatch.setitem(record.table, (12, 0, 1), Laurent.term(1))
        code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
        err = capsys.readouterr().err
        assert code == EXIT_MISMATCH
        assert err == (
            "error: count table of mu=[4, 9, 0] reaches [12, 0, 1], which is "
            "not a member of its block\n"
        )

    def test_one_geometry_across_n(self, capsys, monkeypatch):
        # blocks at n and n + 1 share the memos of one (l, e, kappa)
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        base = ["decompose", "--l", "3", "--e", "8", "--kappa", "0,4,6"]
        for n, mu in [("13", "4,9,0"), ("14", "4,10,0")]:
            code, _ = run(capsys, base + ["--n", n, "--mu", mu])
            assert code == EXIT_OK
        assert len(geometry._GEOMETRIES) == 1

    def test_decompose_table(self, capsys):
        code, out = run(capsys, ["decompose"] + RANK1 + ["--mu", "0,11"])
        assert code == EXIT_OK
        assert "decomposition numbers d:" in out
        assert "simple characters:" in out
        assert "standard dimensions:" in out

    def test_svg(self, capsys):
        code, out = run(capsys, ["svg"] + INTRO +
                        ["--lambda", "4,6,3", "--mu", "4,9,0"])
        assert code == EXIT_OK
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")
        # the two paths from (0, 11) to (4, 7) at l = 2, pinned by sha256
        code, out = run(capsys, ["svg"] + RANK1 + ["--lambda", "4,7", "--mu", "0,11"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "af1ce25381defb8a078ece4fc8746c19998c160d70ac6a9a317d65341b3b3ded"
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, ["blocks"] + RANK1 +
                        ["--format", "json", "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        json.loads(target.read_text())

    def test_out_file_mode_and_links_are_those_of_open(self, capsys, tmp_path):
        # a new file gets 0o666 less the umask and an old one keeps its
        # mode, as open(out, "w") gives them; a link is written through,
        # and no other file is left in the directory
        mask = os.umask(0o022)
        os.umask(mask)
        new, old, link = (tmp_path / name for name in ("new", "old", "link"))
        old.write_text("old\n")
        old.chmod(0o640)
        link.symlink_to(old)
        for target in (new, old, link, "/dev/null"):
            code, out = run(capsys, ["blocks"] + RANK1 + ["--out", str(target)])
            assert (code, out) == (EXIT_OK, "")
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~mask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert link.is_symlink() and link.resolve() == old
        assert old.read_text() == new.read_text() != "old\n"
        assert sorted(tmp_path.iterdir()) == [link, new, old]

    def test_failed_out_write_leaves_no_truncated_file(self, tmp_path):
        # under a file size limit of 4 KiB the 31,850-byte INTRO report
        # fails part way: exit 2 with one error line, and the old file, or
        # no file, is left, with no partial copy beside it
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        argv = ["decompose"] + INTRO + ["--mu", "4,9,0", "--format", "json"]
        target = tmp_path / "x.json"
        for before in (None, "old\n"):
            if before is not None:
                target.write_text(before)
            done = self._cli_process(
                argv + ["--out", str(target)], subprocess.PIPE, preexec_fn=limit
            )
            assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
            assert done.stderr == "error: cannot write %s: %s\n" % (
                target, os.strerror(errno.EFBIG)
            )
            if before is None:
                assert list(tmp_path.iterdir()) == []
            else:
                assert list(tmp_path.iterdir()) == [target]
                assert target.read_text() == before

    def test_out_file_permissions_are_those_of_open(self, tmp_path):
        # a file that may not be written is refused, unchanged, and a
        # writable file in a directory that takes no new file is written
        # in place, as open(out, "w") would do; a process run by root is
        # run without the capabilities that pass over file permissions
        if os.geteuid() != 0:
            prefix = []
        elif shutil.which("setpriv"):
            prefix = ["setpriv", "--bounding-set", "-dac_override,-dac_read_search"]
        else:
            pytest.skip("root, and no setpriv to drop its file capabilities")

        def write(target):
            return self._cli_process(
                ["blocks"] + RANK1 + ["--out", str(target)], subprocess.PIPE,
                prefix=prefix,
            )

        locked, shut = tmp_path / "locked", tmp_path / "shut"
        locked.write_text("old\n")
        locked.chmod(0o444)
        shut.mkdir()
        (shut / "open").write_text("old\n")
        shut.chmod(0o555)
        try:
            done = write(locked)
            assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
            assert done.stderr == "error: cannot write %s: %s\n" % (
                locked, os.strerror(errno.EACCES)
            )
            assert locked.read_text() == "old\n"
            done = write(shut / "open")
            assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "", "")
            assert (shut / "open").read_text().startswith("block")
            done = write(shut / "new")
            assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
            assert done.stderr == "error: cannot write %s: %s\n" % (
                shut / "new", os.strerror(errno.EACCES)
            )
            assert sorted(tmp_path.iterdir()) == [locked, shut]
            assert list(shut.iterdir()) == [shut / "open"]
        finally:
            shut.chmod(0o755)

    @pytest.mark.parametrize("where", ["missing/report.json", ".", "file/report.json"])
    def test_unwritable_out_file(self, capsys, tmp_path, where):
        # a missing parent directory, a directory itself and a parent that
        # is a file
        (tmp_path / "file").write_text("")
        target = tmp_path / where
        code = main(["blocks"] + RANK1 + ["--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write %s: " % target)
        assert "Traceback" not in captured.err

    def test_unwritable_out_file_is_rejected_first(
        self, capsys, monkeypatch, tmp_path
    ):
        # the --out check comes before the block is computed; an empty
        # --out fails as open("") would, not by falling back to stdout
        def never(params, block):
            raise AssertionError("decomposition_matrix was called")

        monkeypatch.setattr(cli, "decomposition_matrix", never)
        for target in [str(tmp_path / "missing" / "out.json"), ""]:
            code = main(["decompose"] + INTRO + ["--mu", "4,9,0", "--out", target])
            captured = capsys.readouterr()
            assert code == EXIT_CONFIG
            assert captured.out == ""
            assert captured.err == (
                "error: cannot write %s: No such file or directory\n" % target
            )

    @staticmethod
    def _cli_process(argv, stdout, stderr=subprocess.PIPE, prefix=(), **kwargs):
        """A fresh ``quivertl`` process writing its report to ``stdout``,
        run through the command ``prefix``, if any."""
        src = str(Path(quivertl.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            list(prefix) + [sys.executable, "-m", "quivertl.cli"] + argv,
            stdout=stdout, stderr=stderr,
            env=dict(os.environ, PYTHONPATH=path), text=True, timeout=120,
            **kwargs,
        )

    def _assert_unwritable_stdout(self, done, errno_code):
        assert done.returncode == EXIT_CONFIG
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert done.stderr == (
            "error: cannot write standard output: %s\n" % os.strerror(errno_code)
        )

    def test_full_standard_output(self):
        # a device that takes no data: the flush fails, and what is still
        # buffered must not fail again at exit
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            done = self._cli_process(["blocks"] + INTRO, full)
        self._assert_unwritable_stdout(done, errno.ENOSPC)

    def test_full_out_file(self):
        # --out names a device that takes no data: the decompose report
        # fails part way and exits 2 with one error line
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        done = self._cli_process(
            ["decompose"] + INTRO + ["--mu", "4,9,0", "--format", "json",
                                     "--out", "/dev/full"],
            subprocess.PIPE,
        )
        assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
        assert done.stderr == "error: cannot write /dev/full: %s\n" % (
            os.strerror(errno.ENOSPC)
        )

    def test_closed_standard_output_pipe(self):
        # the reader of the pipe is gone before the report is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self._cli_process(["decompose"] + INTRO + ["--mu", "4,9,0"], write_end)
        finally:
            os.close(write_end)
        self._assert_unwritable_stdout(done, errno.EPIPE)

    def test_closed_standard_output(self):
        # descriptor 1 is closed before the interpreter starts, so Python
        # has no sys.stdout at all
        done = self._cli_process(
            ["blocks"] + INTRO, None, preexec_fn=lambda: os.close(1)
        )
        self._assert_unwritable_stdout(done, errno.EBADF)


    # an error whose line cannot be written to standard error still exits
    # with its documented code: l = 0 is a configuration error
    BAD_L = ["blocks", "--l", "0", "--e", "8", "--kappa", "0", "--n", "3"]

    def test_full_standard_error(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            done = self._cli_process(self.BAD_L, subprocess.PIPE, stderr=full)
        assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")

    def test_closed_standard_error(self):
        # descriptor 2 is closed before the interpreter starts; the report
        # of a mismatch must not fall back to standard output either
        for argv, code in [
            (self.BAD_L, EXIT_CONFIG),
            (["paths"] + INTRO + ["--lambda", "4,6,3", "--mu", "4,9,0",
                                  "--budget", "1"], EXIT_BUDGET),
        ]:
            done = self._cli_process(
                argv, subprocess.PIPE, stderr=None, preexec_fn=lambda: os.close(2)
            )
            assert (done.returncode, done.stdout) == (code, ""), argv

class TestParser:
    def test_parser_is_reused_without_carrying_options(
        self, capsys, monkeypatch, tmp_path
    ):
        # one parser serves every main call of a process: options given to
        # one call must not reach the next, which gets the defaults
        # --oracle on and --format table
        calls = []
        real = cli.kn_oracle

        def oracle(params, block):
            calls.append(block.members)
            return real(params, block)

        monkeypatch.setattr(cli, "kn_oracle", oracle)
        target = tmp_path / "report.txt"
        decompose = ["decompose"] + INTRO + ["--mu", "4,9,0"]
        code, out = run(capsys, decompose + [
            "--oracle", "off", "--format", "table", "--out", str(target),
        ])
        assert (code, out, calls) == (EXIT_OK, "", [])
        parser = cli._PARSER
        code, _ = run(capsys, ["blocks"] + RANK1)
        assert code == EXIT_OK
        code, out = run(capsys, decompose)
        assert code == EXIT_OK
        assert len(calls) == 1
        assert cli._PARSER is parser
        src = str(Path(quivertl.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "quivertl.cli"] + decompose,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == EXIT_OK, fresh.stderr
        assert out == fresh.stdout == target.read_text()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["blocks"] + INTRO + ["--format", "json"],
        ["decompose"] + INTRO + ["--mu", "4,9,0", "--format", "json"],
        ["svg"] + INTRO + ["--lambda", "4,6,3", "--mu", "4,9,0"],
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


# malformed values of every kind the options take
BAD = ["", "x", "-1", "1,,2", "0,-2", "1.5", "xml"]


def _draw_argv(data, workdir):
    """One argv for a random command at l <= 4, e <= 10, n <= 8: well-formed
    options, of which up to two are then made malformed or left out.
    ``--out`` names only a file in ``workdir``, ``""``, ``workdir`` itself
    or a file in a missing directory, so that nothing is written anywhere
    else."""
    draw = data.draw
    command = draw(st.sampled_from(["blocks", "paths", "decompose", "svg"]))
    l = draw(st.integers(1, 4))
    # three times in four e >= 2l, and kappa of residues two apart, which
    # then satisfies the multicharge condition
    e = draw(st.integers(2 * l, 10) if draw(st.integers(0, 3)) else st.integers(0, 10))
    n = draw(st.integers(0, 8))
    shift = draw(st.integers(0, 9))
    spaced = [(2 * i + shift) % max(e, 1) for i in range(l)]
    kappa = draw(
        st.permutations(spaced) if draw(st.integers(0, 3))
        else st.lists(st.integers(-1, max(e, 1)), min_size=l - 1, max_size=l + 1)
    )

    def weight():
        # mostly a multipartition of n: l parts cut at sorted points
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=l - 1, max_size=l - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        kind = draw(st.sampled_from(["ok", "ok", "ok", "more", "fewer", "bigger"]))
        if kind == "more":
            parts.append(0)
        elif kind == "fewer":
            parts.pop()
        elif kind == "bigger":
            parts[-1] += 1
        return ",".join(map(str, parts))

    options = {
        "--l": str(l),
        "--e": str(e),
        "--kappa": ",".join(map(str, kappa)),
        "--n": str(n),
    }
    if command in ("paths", "svg"):
        options["--mu"] = weight()
        options["--lambda"] = weight()
        options["--budget"] = str(draw(st.integers(0, 40)))
    if command == "decompose":
        options["--mu"] = weight()
        options["--oracle"] = draw(st.sampled_from(["on", "off"]))
    if command != "svg":
        options["--format"] = draw(st.sampled_from(["table", "json"]))
    for name in draw(st.sets(st.sampled_from(sorted(options)), max_size=2)):
        bad = draw(st.sampled_from(BAD + [None]))
        if bad is None:
            del options[name]
        else:
            options[name] = bad
    # after the malformed values: a relative --out would write into the
    # working directory
    out = draw(st.sampled_from([
        None, None, str(workdir / "report"), str(workdir / "report"),
        "", str(workdir), str(workdir / "missing" / "r"),
    ]))
    if out is not None:
        options["--out"] = out
    return [command] + ["%s=%s" % item for item in options.items()]


class TestRandomArgv:
    @given(data=st.data())
    @settings(
        max_examples=400, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_argv_ends_in_a_documented_exit_code(self, data, tmp_path):
        # every call returns, or leaves through argparse's SystemExit, with
        # a documented code; no other exception escapes
        argv = _draw_argv(data, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_MISMATCH, EXIT_BUDGET}, argv
