import numpy as np
import pytest

from lsmaxwell.bench import StudyError
from lsmaxwell.cli import main, parse_config
from lsmaxwell.mesh import read_mesh_text


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE_CFG = """
# least-squares run on the square
domain = square
n_list = 4, 8
elements_v = ned0
elements_q = p1
gauge = multiplier
bc = standard
nev = 3
"""


class TestMeshCommand:
    def test_square_export(self, tmp_path):
        out = str(tmp_path / "m.txt")
        rc = main(["mesh", "square", "--n", "3", "--out", out])
        assert rc == 0
        m = read_mesh_text(open(out).read())
        assert m.num_vertices == 16
        assert m.num_cells == 18

    def test_perturbed_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            rc = main(["mesh", "square", "--n", "4", "--perturb", "0.2",
                       "--seed", "5", "--out", out])
            assert rc == 0
        assert open(a).read() == open(b).read()

    @pytest.mark.parametrize("domain,right,crisscross", [("lshape", 24, 48),
                                                          ("slit", 8, 16)])
    def test_diagonal_reaches_singular_domains(self, tmp_path, domain, right,
                                               crisscross):
        n = "2" if domain == "lshape" else "1"
        cells = {}
        for diag in ("right", "crisscross"):
            out = str(tmp_path / f"{diag}.txt")
            assert main(["mesh", domain, "--n", n, "--diagonal", diag, "--out", out]) == 0
            cells[diag] = read_mesh_text(open(out).read()).num_cells
        assert cells == {"right": right, "crisscross": crisscross}

    def test_unknown_diagonal(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "lshape", "--n", "2", "--diagonal", "cross",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "cross" in capsys.readouterr().err

    def test_invalid_n(self, tmp_path):
        rc = main(["mesh", "square", "--n", "0", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestSolveCommand:
    def test_spectrum_csv(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", BASE_CFG)
        out = str(tmp_path / "spec.csv")
        rc = main(["solve", "--config", cfg, "--nev", "3", "--out", out])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "index,lambda,residual"
        # exactly nev rows; the least-squares solve used to write nev + 2
        assert len(lines) == 4
        lam1 = float(lines[1].split(",")[1])
        assert 1.0 < lam1 < 2.5
        # every returned pair passed the gate, so there is no discards log
        assert not (tmp_path / "spec.csv.discards.txt").exists()

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", BASE_CFG.replace("nev = 3", "nev = 3")
                    .replace("n_list = 4, 8", "n_list = 1"))
        out = str(tmp_path / "spec.csv")
        rc = main(["solve", "--config", cfg, "--nev", "50", "--out", out])
        assert rc == 3

    def test_validation_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "domain = hexagon\nn_list = 4\n")
        rc = main(["solve", "--config", cfg, "--nev", "2",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_ls2d_edge_potential_names_the_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "q.cfg", BASE_CFG.replace("elements_q = p1",
                                                        "elements_q = ned0"))
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert "elements_q" in capsys.readouterr().err
        assert not out.exists()


    def test_3d_kind_rejects_fields_it_fixes(self, tmp_path, capsys):
        # each of these settings used to be ignored without a word; the
        # reference kinds fix fields too
        for text in (
                "domain = cube\nn = 2\nformulation = ls3d_twofield_nodal\n"
                "elements_v = p2\nbc = mixed_slit\ngauge = multiplier\n",
                "domain = slit\nn = 2\nformulation = galerkin_laplace\n"
                "elements_v = p2\ngauge = none\neps_outside = 5\n",
                "domain = slit\nn = 2\nformulation = galerkin_laplace\n"
                "eps_outside = 5\n",
                "domain = slit\nn = 2\nformulation = curlcurl_edge\n"
                "bc = mixed_slit\n"):
            cfg = write(tmp_path, "ref.cfg", text)
            out = tmp_path / "s.csv"
            rc = main(["solve", "--config", cfg, "--nev", "2", "--out", str(out)])
            assert rc == 2, text
            assert "fixes" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_gauge_exits_2(self, tmp_path, capsys):
        # it used to be solved as gauge = none
        cfg = write(tmp_path, "g.cfg", "domain = square\nn = 4\ngauge = bogus\n")
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", cfg, "--nev", "3", "--out", str(out)]) == 2
        assert "unknown gauge mode" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_modes_names_the_requested_nev(self, tmp_path, capsys):
        # the curl-curl pencil on the n = 2 square has 7 nonzero eigenvalues
        cfg = write(tmp_path, "cc.cfg",
                    "domain = square\nn = 2\nformulation = curlcurl_edge\n")
        out = tmp_path / "s.csv"
        rc = main(["solve", "--config", cfg, "--nev", "10", "--out", str(out)])
        assert rc == 3
        assert "(requested 10)" in capsys.readouterr().err
        assert not out.exists()

    def test_config_nev_without_flag(self, tmp_path):
        # the config's nev = 3 counts when --nev is not given
        cfg = write(tmp_path, "run.cfg", BASE_CFG)
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_nev_zero_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", BASE_CFG)
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--nev", "0", "--out", str(out)]) == 2
        assert "nev must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("formulation", ["curlcurl_edge", "galerkin_laplace"])
    def test_symmetric_rows_carry_residuals(self, tmp_path, formulation):
        # the reference pencils pass the same residual gate as the
        # least-squares ones, and the CSV shows every residual
        cfg = write(tmp_path, "ref.cfg",
                    f"domain = square\nn = 8\nformulation = {formulation}\n")
        out = tmp_path / "spec.csv"
        assert main(["solve", "--config", cfg, "--nev", "5", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 5
        assert all(float(r.split(",")[2]) <= 1e-8 for r in rows)
        assert not (tmp_path / "spec.csv.discards.txt").exists()


class TestIgnoredSettings:
    # a setting the domain's mesh builder cannot use fails the run instead
    # of being dropped
    CFGS = {"lshape-side": "domain = lshape\nn = 2\nside = 2\nnev = 2\n",
            "slit-side": "domain = slit\nn = 1\nside = 2\nnev = 2\n"
                        "formulation = galerkin_laplace\n",
            "cube-diagonal": "domain = cube\nn = 1\ndiagonal = left\nnev = 2\n"
                             "formulation = ls3d_threefield\nelements_q = ned0\n"}

    @pytest.mark.parametrize("args", [["lshape", "--side", "2"],
                                      ["slit", "--side", "2"],
                                      ["cube", "--diagonal", "left"]],
                             ids=["lshape-side", "slit-side", "cube-diagonal"])
    def test_mesh(self, tmp_path, capsys, args):
        out = tmp_path / "m.txt"
        assert main(["mesh", *args, "--n", "1", "--out", str(out)]) == 2
        assert "does not apply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "study", "compare"])
    @pytest.mark.parametrize("name", sorted(CFGS))
    def test_config_commands(self, tmp_path, capsys, name, command):
        cfg = write(tmp_path, "c.cfg", self.CFGS[name])
        out = tmp_path / "out.csv"
        inputs = (["--config-a", cfg, "--config-b", cfg] if command == "compare"
                  else ["--config", cfg])
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert "does not apply" in capsys.readouterr().err
        assert not out.exists()


class TestStudyCommand:
    def test_csv_report(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", BASE_CFG)
        out = str(tmp_path / "report.csv")
        rc = main(["study", "--config", cfg, "--out", out])
        assert rc == 0
        head = open(out).read().splitlines()[0]
        assert head == "mode,n,lambda,ref,error,rate"

    def test_markdown_report(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", BASE_CFG)
        out = str(tmp_path / "report.md")
        rc = main(["study", "--config", cfg, "--out", out])
        assert rc == 0
        assert "Exact" in open(out).read()

    def test_jumping_coefficients_config(self, tmp_path):
        text = BASE_CFG.replace("elements_v = ned0", "elements_v = p1") + (
            "eps_inside = 1.0\neps_outside = 100.0\n")
        cfg = write(tmp_path, "mat.cfg", text)
        out = str(tmp_path / "report.csv")
        assert main(["study", "--config", cfg, "--out", out]) == 0


class TestCompareCommand:
    def test_pairwise_diff(self, tmp_path):
        cfg_a = write(tmp_path, "a.cfg",
                      BASE_CFG.replace("elements_v = ned0", "elements_v = p1"))
        cfg_b = write(tmp_path, "b.cfg",
                      BASE_CFG.replace("formulation", "x")
                      + "formulation = galerkin_laplace\n")
        out = str(tmp_path / "diff.csv")
        rc = main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
                   "--out", out])
        assert rc == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "mode,n,lambda,ref,error,rate"
        # pairwise differences shrink with refinement for the first mode
        errs = [float(r.split(",")[4]) for r in rows[1:3]]
        assert errs[1] < errs[0]

    def test_material_of_second_config(self, tmp_path):
        # the quarter is tagged when either config has a material; a config
        # without one has equal values on both tags
        cfg_a = write(tmp_path, "a.cfg",
                      "domain = square\nn_list = 4 8\nelements_v = p1\nnev = 5\n")
        plain = "domain = square\nn_list = 4 8\nformulation = curlcurl_edge\nnev = 5\n"
        csv = {}
        for name, extra in (("plain", ""), ("eps", "eps_inside = 100\n")):
            cfg_b = write(tmp_path, f"{name}.cfg", plain + extra)
            out = tmp_path / f"{name}.csv"
            assert main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
                         "--out", str(out)]) == 0
            csv[name] = out.read_text()
        assert csv["eps"] != csv["plain"]
        # the material of config B reaches only config B's pencil
        lam_a = [r.split(",")[2] for r in csv["eps"].splitlines()[1:]]
        assert lam_a == [r.split(",")[2] for r in csv["plain"].splitlines()[1:]]

    def test_material_of_second_config_needs_the_square(self, tmp_path, capsys):
        cfg_a = write(tmp_path, "a.cfg", "domain = lshape\nn = 2\nnev = 3\n")
        cfg_b = write(tmp_path, "b.cfg", "domain = lshape\nn = 2\nnev = 3\n"
                      "formulation = curlcurl_edge\nmu_inside = 4\n")
        assert main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
                     "--out", str(tmp_path / "d.csv")]) == 2
        assert "square only" in capsys.readouterr().err

    def test_mismatched_configs(self, tmp_path):
        cfg_a = write(tmp_path, "a.cfg", BASE_CFG)
        cfg_b = write(tmp_path, "b.cfg", BASE_CFG.replace("n_list = 4, 8",
                                                          "n_list = 4, 16"))
        rc = main(["compare", "--config-a", cfg_a, "--config-b", cfg_b,
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 2


class TestConfigParser:
    def test_comments_and_forms(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "# comment\ndomain = slit\nn_list 4,8\nnev = 5\n")
        got = parse_config(cfg)
        assert got == {"domain": "slit", "n_list": "4,8", "nev": "5"}

    def test_unknown_key(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "domain = square\nn_list = 4\nevn = 5\n")
        with pytest.raises(StudyError, match="'evn'"):
            parse_config(cfg)

    def test_reference_key_removed(self, tmp_path, capsys):
        # a study compares against its own domain's reference; the key that
        # chose another one (a square study against the cube) is gone
        cfg = write(tmp_path, "c.cfg", BASE_CFG + "reference = cube\n")
        out = tmp_path / "r.csv"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown config key 'reference'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "typo.cfg", BASE_CFG + "elements_w = p1\n")
        rc = main(["solve", "--config", cfg, "--nev", "2",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "'elements_w'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()
