"""Command line interface: exit codes, determinism, output formats."""

import json

import pytest

from quivertl import cli
from quivertl.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main
from quivertl.laurent import Laurent

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
        code, _ = run(capsys, ["blocks", "--l", "2", "--e", "4",
                               "--kappa", "0,1", "--n", "5"])
        assert code == EXIT_CONFIG

    def test_bad_multipartition(self, capsys):
        code, _ = run(capsys, ["paths"] + RANK1 +
                      ["--lambda", "0,x", "--mu", "0,11"])
        assert code == EXIT_CONFIG

    def test_wrong_box_count(self, capsys):
        code, _ = run(capsys, ["paths"] + RANK1 +
                      ["--lambda", "0,10", "--mu", "0,11"])
        assert code == EXIT_CONFIG

    def test_budget_exceeded(self, capsys):
        code, _ = run(capsys, ["paths"] + INTRO +
                      ["--lambda", "4,6,3", "--mu", "4,9,0", "--budget", "4"])
        assert code == EXIT_BUDGET

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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, ["blocks"] + RANK1 +
                        ["--format", "json", "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        json.loads(target.read_text())


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
