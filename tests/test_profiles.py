import warnings

import numpy as np
import pytest

from dynamolab import AlphaProfile, ConfigurationError, DomainError, parse_profile


class TestFamilies:
    def test_constant(self):
        p = AlphaProfile.constant(2.5)
        r = np.linspace(0, 1, 11)
        assert np.all(p(r) == 2.5)
        assert np.all(p.d1(r) == 0.0)
        assert np.all(p.d2(r) == 0.0)

    def test_polynomial_derivatives(self):
        p = AlphaProfile.polynomial([1.0, 0.0, 0.5])  # 1 + r^2/2
        assert p(0.5) == pytest.approx(1.125)
        assert p.d1(0.5) == pytest.approx(0.5)
        assert p.d2(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]]], ids=["empty", "nested"])
    def test_polynomial_needs_flat_non_empty_coefficients(self, coeffs):
        with pytest.raises(ConfigurationError, match="non-empty"):
            AlphaProfile.polynomial(coeffs)

    def test_exponential(self):
        p = AlphaProfile.exponential(2.0, -1.5)
        r = 0.3
        assert p(r) == pytest.approx(2.0 * np.exp(-0.45))
        assert p.d1(r) == pytest.approx(-3.0 * np.exp(-0.45))
        assert p.d2(r) == pytest.approx(4.5 * np.exp(-0.45))

    def test_spline_roundtrip(self, tmp_path):
        rs = np.linspace(0, 1, 41)
        vals = 1.0 + rs**2
        path = tmp_path / "alpha.txt"
        path.write_text("\n".join(f"{r} {v}" for r, v in zip(rs, vals)))
        p = AlphaProfile.spline(path)
        assert p(0.5) == pytest.approx(1.25, abs=1e-8)
        assert p.d1(0.5) == pytest.approx(1.0, rel=1e-4)

    def test_spline_must_cover_unit_interval(self):
        rs = np.linspace(0.2, 1.0, 10)
        with pytest.raises(ConfigurationError):
            AlphaProfile.from_samples(rs, np.ones_like(rs))

    @pytest.mark.parametrize(
        "rs, values",
        [(np.linspace(0, 1, 3), np.ones(3)), (np.linspace(0, 1, 5), np.ones(4)), (np.ones((4, 2)), np.ones((4, 2)))],
        ids=["three-rows", "unequal", "two-d"],
    )
    def test_spline_needs_two_equal_columns(self, rs, values):
        with pytest.raises(ConfigurationError, match="equal-length"):
            AlphaProfile.from_samples(rs, values)

    def test_spline_requires_increasing_r(self):
        rs = np.array([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(ConfigurationError):
            AlphaProfile.from_samples(rs, np.ones_like(rs))

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(DomainError):
            AlphaProfile(
                family="poly",
                label="broken",
                _f=lambda r: np.asarray(r) ** 2,
                _d1=lambda r: 3.0 * np.asarray(r),  # wrong on purpose
                _d2=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
            )

    def test_unbounded_rejected(self):
        with pytest.raises(DomainError):
            AlphaProfile(
                family="poly",
                label="pole",
                _f=lambda r: 1.0 / (np.asarray(r, dtype=float) - 0.5),
                _d1=lambda r: -1.0 / (np.asarray(r, dtype=float) - 0.5) ** 2,
                _d2=lambda r: 2.0 / (np.asarray(r, dtype=float) - 0.5) ** 3,
            )

    @pytest.mark.parametrize("literal", ["poly:1,0,1e308", "poly:0,0,0,1e308"])
    def test_overflowing_derivative_rejected(self, literal):
        # the derivative overflows to inf, so the relative error is NaN,
        # which must not pass for "within tolerance"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="derivative"):
                parse_profile(literal)

    def test_large_profiles_accepted(self):
        # the difference quotient's error grows with |alpha|; exact
        # derivatives pass however large the profile is
        assert parse_profile("poly:1,0,0,500")(1.0) == 501.0
        for literal in ("poly:1,0,0,5", "poly:1,0,0,0,0,20", "poly:1,-3"):
            for c in (1e3, 1e6, 1e8):
                parse_profile(literal).scaled(c)


class TestPositivity:
    def test_positive_profile_passes(self):
        AlphaProfile.polynomial([1.0, 0.0, 1.0]).require_positive()

    def test_sign_changing_profile_fails(self):
        with pytest.raises(DomainError):
            AlphaProfile.polynomial([1.0, -4.0]).require_positive()

    def test_sign_changing_allowed_without_requirement(self):
        p = AlphaProfile.polynomial([1.0, -4.0])
        assert p(1.0) == pytest.approx(-3.0)


class TestScaled:
    def test_scaling_values_and_derivatives(self):
        p = AlphaProfile.polynomial([1.0, 2.0]).scaled(3.0)
        assert p(0.5) == pytest.approx(6.0)
        assert p.d1(0.5) == pytest.approx(6.0)
        assert p.family == "poly"

    def test_zero_scale_gives_zero_profile(self):
        p = AlphaProfile.constant(1.0).scaled(0.0)
        assert np.all(p(np.linspace(0, 1, 5)) == 0.0)


class TestParse:
    def test_const(self):
        assert parse_profile("const:1.5")(0.3) == 1.5

    def test_poly(self):
        p = parse_profile("poly:1,0,0.5")
        assert p(1.0) == pytest.approx(1.5)

    def test_exp(self):
        p = parse_profile("exp:2,0.5")
        assert p(1.0) == pytest.approx(2 * np.exp(0.5))

    def test_spline_file(self, tmp_path):
        path = tmp_path / "prof.csv"
        rs = np.linspace(0, 1, 21)
        path.write_text("\n".join(f"{r},{2.0 + r}" for r in rs))
        p = parse_profile(f"spline:{path}")
        assert p(0.25) == pytest.approx(2.25, abs=1e-8)

    @pytest.mark.parametrize("bad", ["gauss:1", "poly:", "const:x", "exp:1", "spline:/nonexistent/file", None])
    def test_bad_literals(self, bad):
        with pytest.raises(ConfigurationError):
            parse_profile(bad)
