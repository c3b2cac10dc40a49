import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynamolab.cli import build_parser, main
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
                env=fresh_env(),
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

    README_N60 = ["pencil-check", "--alpha", "poly:1,0,0.5", "--l", "1", "--n", "60"]

    def test_runs_without_lapack_eigenvectors(self, tmp_path, monkeypatch):
        def refuse(a):
            raise AssertionError("np.linalg.eig must not be called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        assert main(self.README_N60 + ["--out", str(tmp_path / "p.csv")]) == 0
        assert len(read_lines(tmp_path / "p.csv")) == 13

    def test_coefficients_match_lapack_eigenvectors(self, tmp_path):
        from dynamolab import assemble, build_grid, parse_profile, pencil_coefficients

        assert main(self.README_N60 + ["--out", str(tmp_path / "p.csv")]) == 0
        m = assemble(build_grid(60), parse_profile("poly:1,0,0.5"), 1)
        vals, vecs = np.linalg.eig(m.matrix)  # the oracle: dgeev's own eigenvectors
        for line in read_lines(tmp_path / "p.csv")[1:]:
            cols = line.split(",")
            lam = complex(float(cols[1]), float(cols[2]))
            vec = vecs[:, np.argmin(np.abs(vals - lam))]
            ref = pencil_coefficients(m, vec[: m.n])
            for got, want in zip(map(float, cols[3:6]), (ref.a0, ref.a1, ref.a2)):
                assert got == pytest.approx(want, rel=1e-8)

    def test_repeated_runs_byte_identical(self, tmp_path):
        argv = ["pencil-check", "--alpha", "poly:10,-30", "--n", "100"]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPencilCheckLeading:
    """Whenever the Arnoldi vectors fit, pencil-check takes its leading eigenvalues from ARPACK."""

    README = ["pencil-check", "--alpha", "poly:1,0,0.5", "--l", "1", "--n", "300"]

    @staticmethod
    def dense(monkeypatch):
        import dynamolab.spectral

        monkeypatch.setattr(dynamolab.spectral, "_leading_eigen", lambda *args: None)

    def test_no_dense_solve_and_no_dense_matrix(self, tmp_path, monkeypatch):
        import dynamolab.cli

        def refuse(a):
            raise AssertionError("np.linalg.eigvals must not be called")

        built, assemble = [], dynamolab.cli.assemble

        def keep(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(dynamolab.cli, "assemble", keep)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert main(self.README + ["--out", str(tmp_path / "p.csv")]) == 0
        assert len(read_lines(tmp_path / "p.csv")) == 13
        assert "matrix" not in built[0].__dict__

    def test_vectors_come_from_the_leading_solve(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("no dense solve may run")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert main(self.README + ["--out", str(tmp_path / "p.csv")]) == 0
        assert len(read_lines(tmp_path / "p.csv")) == 13

    @pytest.mark.parametrize("alpha", ["poly:1,0,0.5", "poly:1,0,0.9"])
    def test_one_count_pass_of_65_shifts(self, tmp_path, monkeypatch, alpha):
        from dynamolab import DynamoMatrix

        true_pivots, passes = DynamoMatrix.pivot_determinants, []

        def counted(self, shifts):
            passes.append(len(shifts))
            return true_pivots(self, shifts)

        monkeypatch.setattr(DynamoMatrix, "pivot_determinants", counted)
        argv = ["pencil-check", "--alpha", alpha, "--l", "1", "--n", "300", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        assert passes == [65]  # y = 0 and the 64 log-spaced samples, with no bisection round

    def test_rows_match_the_dense_path(self, tmp_path, monkeypatch):
        assert main(self.README + ["--out", str(tmp_path / "leading.csv")]) == 0
        self.dense(monkeypatch)
        assert main(self.README + ["--out", str(tmp_path / "dense.csv")]) == 0
        leading = [ln.split(",") for ln in read_lines(tmp_path / "leading.csv")]
        dense = [ln.split(",") for ln in read_lines(tmp_path / "dense.csv")]
        assert [r[0] for r in leading] == [r[0] for r in dense]
        for got, want in zip(leading[1:], dense[1:]):
            lam, ref = complex(float(got[1]), float(got[2])), complex(float(want[1]), float(want[2]))
            assert abs(lam - ref) <= 1e-9 * abs(ref)
            assert float(got[7]) <= 1e-6 and float(got[8]) <= 1e-6

    def test_missed_value_output_identical_to_dense(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg

        true_eigs = scipy.sparse.linalg.eigs

        def drop_leading(*args, **kwargs):  # an ARPACK that misses the leading eigenvalue
            got = true_eigs(*args, **kwargs)
            if not kwargs["return_eigenvectors"]:
                return np.delete(got, np.argmax(got.real))
            vals, vecs = got
            drop = np.argmax(vals.real)
            return np.delete(vals, drop), np.delete(vecs, drop, axis=1)

        with monkeypatch.context() as patch:
            patch.setattr(scipy.sparse.linalg, "eigs", drop_leading)
            assert main(self.README + ["--out", str(tmp_path / "miss.csv")]) == 0
        self.dense(monkeypatch)
        assert main(self.README + ["--out", str(tmp_path / "dense.csv")]) == 0
        assert (tmp_path / "miss.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_bad_ritz_vector_output_identical_to_dense(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg

        true_eigs = scipy.sparse.linalg.eigs

        def corrupt_one_column(*args, **kwargs):  # an ARPACK whose leading Ritz vector is wrong
            vals, vecs = true_eigs(*args, **kwargs)
            vecs = vecs.copy()
            vecs[:, np.argmax(vals.real)] = np.random.default_rng(7).standard_normal(vecs.shape[0])
            return vals, vecs

        with monkeypatch.context() as patch:
            patch.setattr(scipy.sparse.linalg, "eigs", corrupt_one_column)
            assert main(self.README + ["--out", str(tmp_path / "bad.csv")]) == 0
        self.dense(monkeypatch)
        assert main(self.README + ["--out", str(tmp_path / "dense.csv")]) == 0
        assert (tmp_path / "bad.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_skipped_row_asks_the_dense_spectrum(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import dynamolab.cli

        true_eigen, requests = dynamolab.cli.eigen, []

        def counted_eigen(m, **kwargs):
            spec = true_eigen(m, **kwargs)
            requests.append((kwargs.get("leading"), spec.right_of is not None))
            if len(requests) == 1:  # the first eigenvector looks decoupled, so its row is skipped
                vecs = spec.eigenvectors.copy()
                vecs[: m.n, 0] = 0.0
                spec = replace(spec, eigenvectors=vecs)
            return spec

        monkeypatch.setattr(dynamolab.cli, "eigen", counted_eigen)
        assert main(self.README + ["--out", str(tmp_path / "p.csv")]) == 0
        assert requests == [(12, True), (None, False)]  # the leading request, then the dense one
        skipped = read_lines(tmp_path / "p.csv")
        self.dense(monkeypatch)
        assert main(self.README + ["--out", str(tmp_path / "dense.csv")]) == 0
        assert [ln.split(",")[0] for ln in skipped[1:]] == [str(i) for i in range(12)]
        assert skipped == read_lines(tmp_path / "dense.csv")

    def test_genuine_decoupled_columns_are_skipped(self, tmp_path):
        # at alpha = 1e-100 the eigenvalues are numerically double, and dgeev
        # returns some eigenvectors with u1 = 0; 4 (4 + 4) >= 2n keeps it dense
        out = tmp_path / "p.csv"
        assert main(["pencil-check", "--alpha", "const:1e-100", "--n", "16", "--modes", "4", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in read_lines(out)[1:]]
        index = [int(r[0]) for r in rows]
        assert len(rows) == 4 and all(a < b for a, b in zip(index, index[1:]))
        assert index[-1] > 3  # at least one column skipped
        assert all(float(r[7]) <= 1e-6 for r in rows)

    def test_large_modes_go_dense(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK must not run for 700 of 600 values")

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", refuse)
        assert main(self.README + ["--modes", "700", "--out", str(tmp_path / "p.csv")]) == 0
        lines = read_lines(tmp_path / "p.csv")
        assert len(lines) == 601
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(i) for i in range(600)]

    # alpha == 0, and 1 - 2r, which vanishes at the node r = 256/512 = 0.5
    @pytest.mark.parametrize("alpha, n", [("const:0", "400"), ("poly:1,-2", "511")])
    def test_alpha_zero_on_a_node_fails_before_any_eigensolve(self, tmp_path, capsys, monkeypatch, alpha, n):
        import dynamolab.cli

        def refuse(*args, **kwargs):
            raise AssertionError("no eigensolve may run")

        monkeypatch.setattr(dynamolab.cli, "eigen", refuse)
        out = tmp_path / "x.csv"
        assert main(["pencil-check", "--alpha", alpha, "--n", n, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "configuration error: alpha vanishes on a grid node; the quadratic pencil needs alpha != 0"
        assert not out.exists()


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
        q, keep = sf.q(rs), np.isfinite(sf.rho(rs))
        kept = rs[keep]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in read_lines(out)[1:-2]])
        assert rows.shape == (kept.size, 5)
        for col, want in zip(rows.T, (kept, q[keep], sf.b1(kept), sf.b2(kept), sf.rho(kept))):
            assert np.array_equal(col, want)

    def test_profile_evaluations(self, tmp_path, monkeypatch):
        # per profile: the positivity check, and one evaluation of each term
        # on every radius, which gives the floor mask and the table's columns
        from dynamolab import AlphaProfile

        calls = []
        for name in ("__call__", "d1", "d2"):
            method = getattr(AlphaProfile, name)

            def counted(self, r, name=name, method=method):
                calls.append((self.label, name))
                return method(self, r)

            monkeypatch.setattr(AlphaProfile, name, counted)
        argv = ["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--l1", "2"]
        assert main(argv + ["--out", str(tmp_path / "nogo.csv")]) == 0
        labels = sorted({label for label, _ in calls})
        assert len(labels) == 2
        per_profile = {"__call__": 2, "d1": 1, "d2": 1}
        assert sorted(calls) == sorted(
            (label, name) for label in labels for name, k in per_profile.items() for _ in range(k)
        )

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

    # the named system's profile may have any sign; the other one is parsed but never read
    @pytest.mark.parametrize("profile", ["poly:1,-3", "const:-2", "poly:1,0.2,0.3"])
    @pytest.mark.parametrize("system", ["U", "B"])
    def test_one_system_profile_of_any_sign(self, tmp_path, capsys, system, profile):
        from dynamolab import mre_linear_solve, parse_profile, riccati_residual

        unread = "const:-1"
        alpha0, alpha1 = (profile, unread) if system == "U" else (unread, profile)
        argv = ["mre-check", "--alpha0", alpha0, "--alpha1", alpha1, "--system", system]
        if system == "U":
            generic = (np.array([[0.3 + 0.1j, -0.2], [0.1, 0.4]], dtype=complex), np.eye(2, dtype=complex))
            sol = mre_linear_solve("U", parse_profile(profile), 1, 0.0, 0.1, 1.0, init=generic)
            sup, per_node = riccati_residual(sol)
        else:
            argv += ["--init", "series"]
            sol = mre_linear_solve("B", parse_profile(profile), 2, 0.0, 1e-3, 1.0, init="series")
            sup, per_node = riccati_residual(sol, r_min=0.1)
        out = tmp_path / "mre.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sup <= 1e-10
        rows = zip(sol.rs[::10].tolist(), per_node[::10].tolist(), sol.cond_log[::10].tolist())
        assert read_lines(out) == ["r,riccati_residual,cond_log"] + [",".join(map(repr, row)) for row in rows]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["mre-check", "--stride", "0"],
            ["mre-check", "--stride", "-5"],
            ["mre-check", "--step", "0"],
            ["mre-check", "--step", "inf"],
            ["mre-check", "--E", "nan"],
            ["mre-check", "--E", "inf"],
        ],
        ids=["stride-zero", "stride-negative", "step-zero", "step-inf", "energy-nan", "energy-inf"],
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

    @pytest.mark.parametrize("modes", ["0", "-3"])
    def test_pencil_check_bad_modes(self, tmp_path, capsys, modes):
        out = tmp_path / "x.csv"
        argv = ["pencil-check", "--alpha", "const:1", "--n", "20", "--modes", modes]
        assert main(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, levels, rc", [("10", "9", 0), ("8", "8", 2)])
    def test_darboux_levels_bounded_by_grid(self, tmp_path, capsys, n, levels, rc):
        # L levels compare against L + 1 eigenvalues of H0, which has only n
        out = tmp_path / "x.csv"
        assert main(["darboux", "--n", n, "--levels", levels, "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)
        if rc:
            assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0,1", "0.1,2", "0.5,0.1"])
    def test_nogo_window_outside_the_profile_interval(self, tmp_path, capsys, window):
        # rho is singular at r = 0, the profiles are validated on [0, 1] only,
        # and a reversed window would write descending rows
        out = tmp_path / "x.csv"
        argv = ["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--samples", "5"]
        assert main(argv + ["--window", window, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["sweep", "--alpha", "const:1", "--scale", "0,1"], "expected MIN,MAX,STEPS"),
            (["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--window", "0.1,0.5,1"], "expected LO,HI"),
        ],
        ids=["scale", "window"],
    )
    def test_malformed_number_list(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "literal, text, rc, expected",
        [
            ("const:inf", None, 2, "unbounded"),
            ("const:nan", None, 2, "unbounded"),
            ("spline", "0 1\n0.5 1 2\n1 1\n", 2, "expected two columns"),
            ("spline", "# r alpha\n\n   \n", 2, "is empty"),
            ("spline", "# r alpha\n0 1\n\n0.25 1.25\n# mid\n0.75 1.75\n  \n1 2\n", 0, ""),
            # an empty path names the working directory, which is no table
            ("spline:", None, 2, "configuration error: spline profile file not found: ."),
        ],
        ids=["inf", "nan", "three-columns", "only-comments", "comments-between-rows", "directory"],
    )
    def test_profile_literal(self, tmp_path, capsys, literal, text, rc, expected):
        if text is not None:
            table = tmp_path / "alpha.txt"
            table.write_text(text)
            literal = f"spline:{table}"
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--alpha", literal, "--n", "16", "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert expected in err
        assert len(err.splitlines()) == (1 if rc else 0)
        assert out.exists() == (rc == 0)

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

    @pytest.mark.parametrize(
        "argv, rc, message",
        [
            (["nogo", "--alpha0", "poly:1,0,1e200", "--alpha1", "const:1", "--samples", "8"], 3, "numerical failure: "),
            (["sweep", "--alpha", "const:1", "--scale", "0,inf,5"], 2, "configuration error: "),
            (["sweep", "--alpha", "const:1", "--scale=-1e308,1e308,3", "--n", "10"], 2, "configuration error: the width"),
            # two branches 2.4e201 apart exchange no order: their gaps' product would overflow
            (["sweep", "--alpha", "poly:1e200,0,1e200", "--scale", "0,2,3", "--n", "10", "--track", "2"], 0, ""),
            (["pencil-check", "--alpha", "const:1e200", "--n", "40", "--modes", "2"], 3, "numerical failure: "),
            # lambda ~ 2.8e155 squares past the largest float, although a2 lambda^2 ~ 7.7e152 is finite
            (
                ["pencil-check", "--alpha", "const:1e154", "--n", "12", "--modes", "3"],
                3,
                "numerical failure: pencil residuals of eigenvalue 0 are not finite",
            ),
            (
                ["mre-check", "--alpha0", "const:1e200", "--alpha1", "const:1", "--step", "0.01"],
                0,
                "warning: bottom block numerically singular on ",
            ),
            (["pencil-check", "--alpha", "const:1e-100", "--n", "40", "--modes", "2"], 0, ""),
            (["pencil-check", "--alpha", "const:1e-160", "--n", "40", "--modes", "2"], 3, "numerical failure: "),
            (["pencil-check", "--alpha", "const:1e-200", "--n", "40", "--modes", "2"], 3, "numerical failure: "),
            (["pencil-check", "--alpha", "const:1e-300", "--n", "40", "--modes", "2"], 3, "numerical failure: "),
            (["pencil-check", "--alpha", "const:1e-320", "--n", "40", "--modes", "2"], 3, "numerical failure: "),
            (["mre-check", "--alpha0", "const:1", "--alpha1", "const:1", "--step", "1e-300"], 2, "configuration error: "),
            (
                ["mre-check", "--alpha0", "const:1e308", "--alpha1", "const:1e308", "--step", "1e-2"],
                2,
                "configuration error: flow coefficients M and K^-1 overflow",
            ),
            # 0.9 / 4.4e-6 is just past the 2 * 10**5 steps of one trajectory
            (["mre-check", "--alpha0", "const:1", "--alpha1", "const:1", "--step", "4.4e-6"], 2, "configuration error: "),
            (["nogo", "--alpha0", "exp:1,700", "--alpha1", "const:1", "--samples", "4"], 3, "numerical failure: "),
            (["nogo", "--alpha0", "exp:1,705", "--alpha1", "exp:1,706", "--samples", "4"], 3, "numerical failure: "),
            (
                [
                    "mre-check", "--alpha0", "const:1", "--alpha1", "const:1", "--system", "B",
                    "--init", "series", "--l1", "300", "--step", "0.01",
                ],
                3,
                "numerical failure: ",
            ),
            (["sweep", "--alpha", "const:1", "--scale", "0,1e150,3", "--n", "20"], 3, "numerical failure: "),
            # the count's upper end N (||H|| + |s|) / tail overflows; the dense path then fails its contract
            (["pencil-check", "--alpha", "const:1e300", "--n", "40", "--modes", "4"], 3, "numerical failure: "),
            (
                [
                    "mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "const:1e160", "--step", "1e-2",
                    "--system", "B", "--init", "series",
                ],
                3,
                "numerical failure: series initial data",
            ),
            (["certificate", "--l1", "1000", "--defect-n", "20"], 3, "numerical failure: the 1/r^2 mismatch fit"),
            # at l0 = 8 the small-r fits no longer tell l1 = 9 from 8 or 10
            (
                ["certificate", "--l1", "9", "--defect-n", "20"],
                3,
                "numerical failure: the 1/r^2 mismatch fit does not single out",
            ),
            # -2 l1 / r^2 overflows at r = 1e-160 and divides by an underflowed r^2 = 0 at 1e-300
            (
                ["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--window", "1e-160,1", "--samples", "3"],
                3,
                "numerical failure: rho is not finite",
            ),
            (
                ["nogo", "--alpha0", "exp:1,1", "--alpha1", "const:1", "--window", "1e-300,1", "--samples", "3"],
                3,
                "numerical failure: rho is not finite",
            ),
        ],
        ids=[
            "nogo", "sweep", "sweep-width", "sweep-gap-product", "pencil-check", "pencil-lambda-squared",
            "mre-check", "pencil-1e-100", "pencil-1e-160", "pencil-1e-200", "pencil-1e-300", "pencil-1e-320",
            "mre-step-1e-300", "mre-table", "mre-step-past-cap", "nogo-d2-overflow", "nogo-q-overflow",
            "mre-window-starts",
            "sweep-message", "pencil-count-top-overflow", "mre-series-start-overflow", "certificate-l1-1000",
            "certificate-l1-9", "nogo-centrifugal-overflow", "nogo-centrifugal-underflow",
        ],
    )
    def test_huge_values_give_the_exit_code_and_no_numpy_warning(self, tmp_path, capsys, argv, rc, message):
        # a numpy RuntimeWarning is an error under this suite's warning filter
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "np.float64" not in err
        assert len(err.splitlines()) == (1 if message else 0), err
        assert out.exists() == (rc == 0)


OPTION_SETS = {
    "spectrum": {"--alpha", "--l", "--n", "--out"},
    "sweep": {"--alpha", "--l", "--scale", "--n", "--track", "--out", "--svg"},
    "pencil-check": {"--alpha", "--l", "--n", "--modes", "--out"},
    "darboux": {"--v0", "--n", "--levels", "--out"},
    "nogo": {"--alpha0", "--alpha1", "--l1", "--window", "--samples", "--out", "--svg"},
    "mre-check": {
        "--alpha0", "--alpha1", "--l0", "--l1", "--E", "--system",
        "--r-start", "--step", "--init", "--stride", "--out",
    },
    "certificate": {"--l1", "--defect-n", "--out"},
}


def test_option_sets_are_pinned():
    # every settable value is one more configuration to cover: a new or
    # removed option has to show up here as a test edit
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTION_SETS


# one small run of every command, with the files each writes
EVERY_COMMAND = {
    "spectrum": (["spectrum", "--alpha", "poly:1,0,0.5", "--n", "60"], ["--out"]),
    "sweep": (["sweep", "--alpha", "poly:1,-3", "--scale", "9,11,9", "--n", "60"], ["--out", "--svg"]),
    "pencil-check": (["pencil-check", "--alpha", "poly:1,0,0.5", "--n", "60", "--modes", "4"], ["--out"]),
    "darboux": (["darboux", "--n", "200", "--levels", "3"], ["--out"]),
    "nogo": (["nogo", "--alpha0", "poly:1,0,0.5", "--alpha1", "const:1", "--samples", "64"], ["--out", "--svg"]),
    "mre-check": (
        ["mre-check", "--alpha0", "poly:1,0.2,0.3", "--alpha1", "poly:1,0,0.5", "--step", "1e-3"],
        ["--out"],
    ),
    "certificate": (["certificate", "--defect-n", "60"], ["--out"]),
}


def fresh_env():
    import dynamolab

    src = str(Path(dynamolab.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(argv):
    """argv through the command line of a new interpreter: (exit code, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "dynamolab.cli"] + argv, capture_output=True, text=True, env=fresh_env()
    )
    return proc.returncode, proc.stderr


def command_files(name, directory):
    argv, outputs = EVERY_COMMAND[name]
    paths = [directory / f"{name}{flag}" for flag in outputs]
    return argv + [x for flag, path in zip(outputs, paths) for x in (flag, str(path))], paths


def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    build_parser.cache_clear()
    bad_flag = ["spectrum", "--alpha", "const:1", "--frobnicate", "--out", str(tmp_path / "x.csv")]
    proportional = ["nogo", "--alpha0", "const:1", "--alpha1", "const:2", "--out", str(tmp_path / "p.csv")]
    in_process = {}
    for rnd in ("first", "again"):
        for i, name in enumerate(EVERY_COMMAND):
            argv, paths = command_files(name, tmp_path / rnd)
            paths[0].parent.mkdir(exist_ok=True)
            assert main(argv) == 0, name
            in_process[rnd, name] = [p.read_bytes() for p in paths]
            # a usage error after the third command, a numerical failure after the fifth
            if i == 2:
                capsys.readouterr()
                assert main(bad_flag) == 2
                bad_flag_stderr = capsys.readouterr().err
            if i == 4:
                assert main(proportional) == 3
    assert build_parser.cache_info().misses == 1
    assert (2, bad_flag_stderr) == run_fresh(bad_flag)
    for name in EVERY_COMMAND:
        argv, paths = command_files(name, tmp_path / "fresh")
        paths[0].parent.mkdir(exist_ok=True)
        assert run_fresh(argv)[0] == 0, name
        fresh = [p.read_bytes() for p in paths]
        assert in_process["first", name] == fresh, name
        assert in_process["again", name] == fresh, name


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import dynamolab.cli\n"
        "assert built == [] and dynamolab.cli.build_parser.cache_info().currsize == 0, built\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
