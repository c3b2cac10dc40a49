import subprocess
import sys

import numpy as np
import pytest

from dynamolab.cli import main
from oracles import K_L1


def read_lines(path):
    return path.read_text().splitlines()


class TestSpectrum:
    def test_constant_alpha_golden_first_row(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--alpha", "const:1.0", "--l", "1", "--n", "500", "--out", str(out)])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "re_lambda,im_lambda,class,pair_index"
        first = lines[1].split(",")
        k1 = K_L1[0]
        assert float(first[0]) == pytest.approx(-(k1**2) + k1, rel=1e-3)
        assert float(first[1]) == 0.0
        assert first[2] == "Real"
        assert first[3] == "-1"
        assert len(lines) == 1 + 2 * 500

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["spectrum", "--alpha", "poly:1,0,0.5", "--l", "2", "--n", "60", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_determinism_across_processes(self, tmp_path):
        outs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "dynamolab.cli",
                    "spectrum", "--alpha", "poly:1,0,0.5", "--l", "1", "--n", "60",
                    "--out", str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweep:
    def test_constant_alpha_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        rc = main(
            [
                "sweep", "--alpha", "const:1", "--l", "1",
                "--scale", "0,6,13", "--n", "80", "--track", "4",
                "--out", str(out), "--svg", str(svg),
            ]
        )
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "C,branch_id,re_lambda,im_lambda"
        body = [ln for ln in lines[1:] if not ln.startswith("#") and not ln.startswith("C_lo")]
        marker = lines.index("# events")
        assert lines[marker + 1] == "C_lo,C_hi,kind"
        assert len(lines) == marker + 2  # no events for constant alpha
        assert marker - 1 == 13 * 4
        assert svg.exists() and svg.read_text().startswith("<svg")

    def test_large_cubic_profile_scaling(self, tmp_path):
        # every scaled profile up to C = 100 passes the derivative check
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--alpha", "poly:1,0,0,5", "--scale", "0,100,11", "--n", "40"]
        assert main(argv + ["--out", str(out)]) == 0

    def test_sweep_determinism(self, tmp_path):
        configs = [
            ["--alpha", "const:1", "--scale", "0,3,7", "--n", "60"],
            # the README EP sweep: every step after the first is a local
            # ARPACK solve, whose start vector must be fixed
            ["--alpha", "poly:1,-3", "--l", "1", "--scale", "9,11,17", "--n", "100"],
        ]
        for k, argv in enumerate(configs):
            outs = []
            for name in ("s1.csv", "s2.csv"):
                out = tmp_path / f"{k}_{name}"
                assert main(["sweep"] + argv + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]


class TestPencilCheck:
    def test_residual_columns_small(self, tmp_path):
        out = tmp_path / "pencil.csv"
        rc = main(["pencil-check", "--alpha", "const:1.0", "--l", "1", "--n", "120", "--modes", "6", "--out", str(out)])
        assert rc == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        assert header == [
            "index", "re_lambda", "im_lambda", "a0", "a1", "a2",
            "discriminant", "pencil_residual", "psi2_residual",
        ]
        assert len(lines) == 7
        for ln in lines[1:]:
            cols = ln.split(",")
            assert float(cols[7]) <= 1e-6
            assert float(cols[8]) <= 1e-6


class TestDarboux:
    def test_box_levels(self, tmp_path):
        out = tmp_path / "darboux.csv"
        rc = main(["darboux", "--v0", "const:0.0", "--n", "1000", "--levels", "4", "--out", str(out)])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "level,E0,E1,abs_rel_err"
        for m, ln in enumerate(lines[1:], start=2):
            cols = ln.split(",")
            assert float(cols[2]) == pytest.approx((m * np.pi) ** 2, rel=1e-3)
            assert float(cols[3]) <= 1e-3


class TestNogo:
    def test_quadratic_pair(self, tmp_path):
        out = tmp_path / "nogo.csv"
        rc = main(
            [
                "nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1",
                "--l1", "2", "--window", "0.1,1", "--samples", "64",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "r,q,b1,b2,rho"
        summary = [ln for ln in lines if ln.startswith("min_abs_rho_inf=")]
        assert len(summary) == 1
        assert float(summary[0].split("=")[1]) > 0

    def test_rows_are_the_structure_functions(self, tmp_path):
        from dynamolab import AlphaPair, StructureFunctions, parse_profile

        out = tmp_path / "nogo.csv"
        argv = ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--l1", "2"]
        assert main(argv + ["--window", "0.1,1", "--samples", "20000", "--out", str(out)]) == 0
        pair = AlphaPair(parse_profile("poly:1,0,0.5"), parse_profile("const:1"), l0=1, l1=2, e=0.0)
        sf = StructureFunctions(pair)
        rs = np.linspace(0.1, 1.0, 20000)
        q, keep = sf.q_admissible(rs)
        kept = rs[keep]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in read_lines(out)[1:-2]])
        assert rows.shape == (kept.size, 5)
        for col, want in zip(rows.T, (kept, q[keep], sf.b1(kept), sf.b2(kept), sf.rho(kept))):
            assert np.array_equal(col, want)

    def test_proportional_pair_is_numerical_failure(self, tmp_path):
        out = tmp_path / "nogo.csv"
        rc = main(
            ["nogo", "--alpha0", "const:1", "--alpha1", "const:2", "--out", str(out)]
        )
        assert rc == 3


class TestMreCheck:
    def test_residual_csv(self, tmp_path):
        out = tmp_path / "mre.csv"
        rc = main(
            [
                "mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5",
                "--step", "1e-3", "--stride", "50", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "r,riccati_residual,cond_log"
        vals = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert max(v for v in vals if np.isfinite(v)) <= 1e-5

    @pytest.mark.parametrize("r_start, first_r", [(None, "0.001"), ("0.05", "0.05")])
    def test_series_start_radius(self, tmp_path, r_start, first_r):
        out = tmp_path / "mre.csv"
        argv = [
            "mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "const:1",
            "--system", "B", "--init", "series", "--step", "1e-3", "--out", str(out),
        ]
        if r_start is not None:
            argv += ["--r-start", r_start]
        assert main(argv) == 0
        assert read_lines(out)[1].split(",")[0] == first_r

    def test_large_energy_checks_every_row(self, tmp_path, capsys):
        # the bottom blocks reach a condition number of about 10^4.4 here,
        # far below the 10^12 threshold: every written node is checked
        out = tmp_path / "mre.csv"
        argv = ["mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5"]
        assert main(argv + ["--E", "1e5", "--step", "1e-3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert len(rows) == 91
        assert all(np.isfinite(float(r[1])) and float(r[2]) < 5.0 for r in rows)

    def test_warnings_reported(self, tmp_path, capsys):
        # a well-conditioned run prints nothing to stderr
        argv = ["mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5"]
        assert main(argv + ["--step", "1e-3", "--out", str(tmp_path / "ok.csv")]) == 0
        assert capsys.readouterr().err == ""
        # alpha0 = 100 at l0 = 10: the bottom block is singular on hundreds of
        # nodes, and the explicit nonlinear RK4 blows up next to them
        argv = [
            "mre-check", "--alpha0", "const:100", "--alpha1", "poly:1,0,0.5", "--l0", "10",
            "--step", "1e-3", "--out", str(tmp_path / "ill.csv"),
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: bottom block numerically singular on ")
        assert "last well-conditioned r = " in err[0]
        assert err[1].startswith("numerical failure: ")


class TestCertificateCommand:
    def test_summary(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main(["certificate", "--defect-n", "120", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "min_abs_rho_inf=" in text
        assert "asymptotic_l1=2" in text
        assert "degenerate_impossible=True" in text


class TestExitCodes:
    def test_unknown_flag_usage_error(self, tmp_path, capsys):
        rc = main(["spectrum", "--alpha", "const:1", "--frobnicate", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 2

    def test_bad_profile_literal(self, tmp_path):
        rc = main(["spectrum", "--alpha", "gauss:1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_l_zero_rejected(self, tmp_path):
        rc = main(["spectrum", "--alpha", "const:1", "--l", "0", "--n", "60", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_grid_too_small(self, tmp_path):
        rc = main(["spectrum", "--alpha", "const:1", "--n", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_pair_tol(self, tmp_path):
        rc = main(["spectrum", "--alpha", "const:1", "--n", "60", "--pair-tol", "-1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["mre-check", "--stride", "0"],
            ["mre-check", "--stride", "-5"],
            ["mre-check", "--step", "0"],
        ],
        ids=["stride-zero", "stride-negative", "step-zero"],
    )
    def test_mre_check_bad_sampling(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        rc = main(argv + ["--alpha0", "const:1", "--alpha1", "const:1", "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nogo_bad_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "x.csv"
        argv = ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--samples", samples]
        assert main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", ["0,1", "0.1,2", "0.5,0.1"])
    def test_nogo_window_outside_the_profile_interval(self, tmp_path, capsys, window):
        # rho is singular at r = 0, the profiles are validated on [0, 1] only,
        # and a reversed window would write descending rows
        out = tmp_path / "x.csv"
        argv = ["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--samples", "5"]
        assert main(argv + ["--window", window, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_nogo_full_window_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--samples", "5"]
        assert main(argv + ["--window", "0.1,1", "--out", str(out)]) == 0
        assert read_lines(out) == [
            "r,q,b1,b2,rho",
            "0.1,0.5,-0.8053506895400425,1.0,399.2232465522997",
            "0.325,0.5,-0.9788852072534739,1.0,36.225396448939726",
            "0.55,0.5,-1.2510415059866085,1.0,10.217932965934725",
            "0.775,0.5,-1.6778675456476855,1.0,1.5203917202527277",
            "1.0,0.5,-2.347264024732662,1.0,-4.486320123663312",
            "min_abs_rho_inf=399.2232465522997",
            "excluded_samples=0",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--alpha", "const:1e308", "--n", "16"],
            ["pencil-check", "--alpha", "const:1e308", "--n", "16"],
            ["sweep", "--alpha", "const:1", "--scale", "0,1e308,3", "--n", "16"],
        ],
        ids=["spectrum", "pencil-check", "sweep"],
    )
    def test_overflowing_profile(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["nogo", "--alpha0", "poly:1,0,1e308", "--alpha1", "const:1"],
            ["mre-check", "--alpha0", "poly:1,0,1e308", "--alpha1", "const:1", "--step", "1e-2"],
        ],
        ids=["nogo", "mre-check"],
    )
    def test_overflowing_profile_derivative(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "derivative" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_conjugation_of_real_matrices(self, tmp_path):
        # LAPACK returns bit-exact conjugate pairs for real input, so even a
        # pair tolerance at the underflow limit classifies cleanly
        rc = main(
            [
                "spectrum", "--alpha", "poly:10,-30", "--l", "1", "--n", "100",
                "--pair-tol", "1e-300", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 0
        assert any("Pair" in ln for ln in read_lines(tmp_path / "x.csv"))
