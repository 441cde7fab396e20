"""Command line interface: exit codes, determinism, output formats."""

import json

import pytest

from quivertl import cli, decomposition, geometry
from quivertl.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main
from quivertl.laurent import Laurent
from quivertl.params import Params

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

    def test_budget_holds_with_a_cached_closure(self, capsys, monkeypatch):
        # the first run caches the whole closure; the budget of the second
        # must still stop it
        monkeypatch.setattr(geometry, "_GEOMETRIES", {})
        argv = ["paths"] + INTRO + ["--lambda", "4,6,3", "--mu", "4,9,0"]
        assert run(capsys, argv)[0] == EXIT_OK
        assert run(capsys, argv + ["--budget", "4"])[0] == EXIT_BUDGET

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

    def test_oracle_failure_names_route_and_pair(self, capsys, monkeypatch):
        # route 1 reads the true counts; only the oracle sees the tampered one
        real_dims = decomposition._standard_dims
        real_oracle = cli.kn_oracle
        for pair, poly, expected in [
            # no bar-symmetric plus positive split exists
            (((4, 6, 3), (4, 9, 0)), Laurent.term(-3, 7),
             "decomposition of 7*t^-3 - t at lambda=[4, 6, 3], mu=[4, 9, 0]"),
            # (5, 6, 2) now reaches (2, 8, 3), whose alcove is as long,
            # and (4, 6, 3) is reached from both
            (((2, 8, 3), (5, 6, 2)), Laurent.term(1),
             "[2, 8, 3] is outside the length gap at lambda=[4, 6, 3], "
             "mu=[5, 6, 2]"),
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
        # each input breaks one geometry check on a fresh Geometry; both
        # checks fail first at the fundamental alcove
        for attr, check in [
            ("_walls", "no wall separates alcove"),
            ("length", "changed length by more than 1"),
        ]:
            with monkeypatch.context() as m:
                m.setattr(geometry, "_GEOMETRIES", {})
                g = geometry.geometry_for(Params(3, 8, (0, 4, 6), 13))
                if attr == "_walls":
                    m.setattr(g, "_walls", [])
                else:
                    m.setattr(g, "length", lambda key: 0)
                code = main(["decompose"] + INTRO + ["--mu", "4,9,0"])
            err = capsys.readouterr().err
            assert code == EXIT_MISMATCH
            assert check in err
            assert "alcove %r" % (g.fundamental,) in err

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
            "Hyperplane(i=1, j=2, m=0) does not bound alcove (0, 0, 0)"
        ) in err

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
