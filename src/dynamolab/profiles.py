"""Radial profiles alpha(r) of the helical turbulence strength, with derivatives.

A profile is the physical input of the model: a bounded real function on
[0,1] together with its first two derivatives.  Four families are supported
and shared with the CLI literal mini-language:

    const:<c>            constant c
    poly:<c0>,<c1>,...   c0 + c1 r + c2 r^2 + ...
    exp:<c>,<a>          c * e^(a r)
    spline:<path>        cubic spline through a two-column table of (r, alpha)

Derivative evaluators are analytic for the closed-form families and come from
the spline object otherwise; on construction they are cross-checked against a
central difference at 32 deterministic sample points, relative to
max(1, max|alpha|, |alpha'|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConfigurationError

_CHECK_SEED = 173503
_N_BOUND_SAMPLES = 1024
_N_DERIV_SAMPLES = 32


@dataclass(frozen=True)
class AlphaProfile:
    """Profile alpha(r) on [0,1] with analytic first and second derivatives."""

    family: str
    label: str
    _f: Callable[[np.ndarray], np.ndarray]
    _d1: Callable[[np.ndarray], np.ndarray]
    _d2: Callable[[np.ndarray], np.ndarray]

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite value fails a check
    def __post_init__(self) -> None:
        rs = np.linspace(0.0, 1.0, _N_BOUND_SAMPLES)
        vals = np.asarray(self._f(rs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError(f"profile {self.label!r} is unbounded on [0,1]")
        tol = 1e-5 if self.family == "spline" else 1e-8
        step = 1e-4 if self.family == "spline" else 1e-5
        pts = np.random.default_rng(_CHECK_SEED).uniform(0.01, 0.99, _N_DERIV_SAMPLES)
        cd = (np.asarray(self._f(pts + step)) - np.asarray(self._f(pts - step))) / (2 * step)
        d1 = np.asarray(self._d1(pts), dtype=float)
        # the difference quotient's rounding and truncation errors grow with the
        # size of alpha, not only with |alpha'|
        scale = np.maximum(max(1.0, float(np.max(np.abs(vals)))), np.abs(d1))
        worst = np.max(np.abs(cd - d1) / scale)
        if not worst <= tol:  # NaN when a derivative overflows
            raise ConfigurationError(
                f"profile {self.label!r}: derivative evaluator inconsistent with "
                f"central differences (worst rel. error {worst:.3e})"
            )

    def __call__(self, r):
        return self._f(np.asarray(r, dtype=float))

    def d1(self, r):
        return self._d1(np.asarray(r, dtype=float))

    def d2(self, r):
        return self._d2(np.asarray(r, dtype=float))

    @cached_property
    def _positive(self) -> bool:
        # evaluated once per profile: the built-in pair family shares six profiles
        return bool(np.all(self(np.linspace(0.0, 1.0, _N_BOUND_SAMPLES)) > 0.0))

    def require_positive(self) -> "AlphaProfile":
        if not self._positive:
            raise ConfigurationError(f"profile {self.label!r} must be strictly positive on [0,1]")
        return self

    def scaled(self, c: float) -> "AlphaProfile":
        """The profile c*alpha(r), staying inside the same family."""
        f, d1, d2 = self._f, self._d1, self._d2
        return AlphaProfile(
            family=self.family,
            label=f"scale({c!r})*{self.label}",
            _f=lambda r: c * np.asarray(f(r), dtype=float),
            _d1=lambda r: c * np.asarray(d1(r), dtype=float),
            _d2=lambda r: c * np.asarray(d2(r), dtype=float),
        )

    # --- constructors -----------------------------------------------------

    @staticmethod
    def constant(c: float) -> "AlphaProfile":
        c = float(c)
        return AlphaProfile(
            family="const",
            label=f"const:{c!r}",
            _f=lambda r: np.full_like(np.asarray(r, dtype=float), c),
            _d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            _d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )

    @staticmethod
    def polynomial(coeffs) -> "AlphaProfile":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ConfigurationError("polynomial profile needs a flat, non-empty coefficient list")
        with np.errstate(over="ignore"):  # an inf coefficient fails the derivative check
            c1 = npoly.polyder(c) if c.size > 1 else np.zeros(1)
            c2 = npoly.polyder(c, 2) if c.size > 2 else np.zeros(1)
        label = "poly:" + ",".join(repr(x) for x in c.tolist())
        return AlphaProfile(
            family="poly",
            label=label,
            _f=lambda r: npoly.polyval(np.asarray(r, dtype=float), c),
            _d1=lambda r: npoly.polyval(np.asarray(r, dtype=float), c1),
            _d2=lambda r: npoly.polyval(np.asarray(r, dtype=float), c2),
        )

    @staticmethod
    def exponential(c: float, a: float) -> "AlphaProfile":
        c = float(c)
        a = float(a)
        return AlphaProfile(
            family="exp",
            label=f"exp:{c!r},{a!r}",
            _f=lambda r: c * np.exp(a * np.asarray(r, dtype=float)),
            _d1=lambda r: c * a * np.exp(a * np.asarray(r, dtype=float)),
            _d2=lambda r: c * a * a * np.exp(a * np.asarray(r, dtype=float)),
        )

    @staticmethod
    def from_samples(r: np.ndarray, values: np.ndarray, label: str = "spline:<samples>") -> "AlphaProfile":
        from scipy.interpolate import CubicSpline  # on use: slow to import

        r = np.asarray(r, dtype=float)
        values = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != values.shape or r.size < 4:
            raise ConfigurationError("spline profile needs two equal-length 1-d columns (>= 4 rows)")
        if np.any(np.diff(r) <= 0):
            raise ConfigurationError("spline profile abscissae must be strictly increasing")
        if r[0] > 0.0 or r[-1] < 1.0:
            raise ConfigurationError("spline profile must cover the whole interval [0,1]")
        s = CubicSpline(r, values)
        s1 = s.derivative(1)
        s2 = s.derivative(2)
        return AlphaProfile(family="spline", label=label, _f=s, _d1=s1, _d2=s2)

    @staticmethod
    def spline(path) -> "AlphaProfile":
        p = Path(path)
        if not p.is_file():  # a directory, such as the "." of a bare "spline:", is no table
            raise ConfigurationError(f"spline profile file not found: {p}")
        try:
            text = p.read_text()
        except OSError as exc:  # unreadable, or gone since the check
            raise ConfigurationError(f"spline profile file {p} cannot be read: {exc}") from exc
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ConfigurationError(f"spline file {p}: expected two columns, got {line!r}")
            rows.append((float(parts[0]), float(parts[1])))
        if not rows:
            raise ConfigurationError(f"spline file {p} is empty")
        data = np.asarray(rows)
        return AlphaProfile.from_samples(data[:, 0], data[:, 1], label=f"spline:{p}")


def parse_profile(text: str) -> AlphaProfile:
    """Parse a profile literal (const:, poly:, exp:, spline:)."""
    try:
        kind, _, rest = text.partition(":")
    except AttributeError:
        raise ConfigurationError(f"profile literal must be a string, got {text!r}")
    kind = kind.strip()
    try:
        if kind == "const":
            return AlphaProfile.constant(float(rest))
        if kind == "poly":
            return AlphaProfile.polynomial([float(x) for x in rest.split(",")])
        if kind == "exp":
            c, a = (float(x) for x in rest.split(","))
            return AlphaProfile.exponential(c, a)
        if kind == "spline":
            return AlphaProfile.spline(rest)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"bad profile literal {text!r}: {exc}") from exc
    raise ConfigurationError(
        f"unknown profile family {kind!r} (expected const, poly, exp or spline)"
    )
