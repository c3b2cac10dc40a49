"""The intertwining relation A^# H0 = H1 A^#, derived symbolically from the operator.

H_k = K_k d^2 + M1_k d + M0_k is the model of the README in u = r psi
coordinates, with K = [[1, 0], [-alpha, 1]], M1 = [[0, 0], [-alpha', 0]],
M0 = [[-V, alpha], [alpha V, -V]] and V = l(l+1)/r^2.  The candidate is
A^# = -d o R^# + Q^#, as in ``intertwining_defect``.  These tests are the
first link of the no-go chain: the u''' coefficient of A^# H0 - H1 A^#
is K1 R^# - R^# K0, and the package's R annihilates it.
"""

import numpy as np
import pytest
import sympy as sp

from dynamolab import parse_profile
from dynamolab.mre import kmat
from dynamolab.nogo import AlphaPair, GaugeChoice, build_R
from dynamolab.operator import sharp

r = sp.Symbol("r", positive=True)
l0, l1 = sp.symbols("l0 l1", positive=True, integer=True)
alpha0 = sp.Function("alpha0", positive=True)(r)
alpha1 = sp.Function("alpha1", positive=True)(r)
u = sp.Matrix([sp.Function("u1")(r), sp.Function("u2")(r)])


def k_sym(a):
    return sp.Matrix([[1, 0], [-a, 1]])


def apply_h(a, l, w):
    """H w for the profile a and mode number l, on a two-component column w."""
    v = l * (l + 1) / r**2
    m1 = sp.Matrix([[0, 0], [-a.diff(r), 0]])
    m0 = sp.Matrix([[-v, a], [a * v, -v]])
    return k_sym(a) * w.diff(r, 2) + m1 * w.diff(r) + m0 * w


def apply_a_sharp(r_sharp, q_sharp, w):
    return -(r_sharp * w).diff(r) + q_sharp * w


def generic(name):
    """A 2x2 matrix of unknown functions of r."""
    return sp.Matrix(2, 2, lambda i, j: sp.Function(f"{name}{i}{j}")(r))


def sharp_sym(m):
    """J m^dagger J, as ``operator.sharp``: swap the diagonal, conjugate every entry."""
    return sp.Matrix([[m[1, 1], m[0, 1]], [m[1, 0], m[0, 0]]]).conjugate()


def third_order_coefficient(r_sharp, q_sharp):
    """The 2x2 matrix that multiplies u''' in A^# H0 u - H1 A^# u."""
    defect = apply_a_sharp(r_sharp, q_sharp, apply_h(alpha0, l0, u)) - apply_h(
        alpha1, l1, apply_a_sharp(r_sharp, q_sharp, u)
    )
    defect = defect.expand()
    assert all(not term.has(u[j].diff(r, 4)) for term in defect for j in range(2))
    return sp.Matrix(2, 2, lambda i, j: defect[i].coeff(u[j].diff(r, 3)))


R_SHARP = generic("Rs")


@pytest.fixture(scope="module")
def c3():
    """The u''' coefficient for generic R^# and Q^#."""
    return third_order_coefficient(R_SHARP, generic("Qs"))


def test_third_order_coefficient_is_the_k_commutator(c3):
    expected = k_sym(alpha1) * R_SHARP - R_SHARP * k_sym(alpha0)
    assert (c3 - expected).expand() == sp.zeros(2, 2)


def test_forced_r_annihilates_the_third_order_coefficient(c3):
    # build_R at gamma = eps = 0
    r_forced = sp.Matrix(
        [[sp.sqrt(alpha1 / alpha0), 0], [-sp.sqrt(alpha0 * alpha1) / 2, sp.sqrt(alpha0 / alpha1)]]
    )
    r_sharp = sharp_sym(r_forced)
    expected = sp.Matrix(
        [[sp.sqrt(alpha0 / alpha1), 0], [-sp.sqrt(alpha0 * alpha1) / 2, sp.sqrt(alpha1 / alpha0)]]
    )
    assert (r_sharp - expected).applyfunc(sp.simplify) == sp.zeros(2, 2)
    assert c3.subs(dict(zip(R_SHARP, r_sharp))).applyfunc(sp.simplify) == sp.zeros(2, 2)


def test_package_r_annihilates_it_in_an_active_gauge(c3):
    a0, a1, *entries = sp.symbols("a0 a1 s0:4")
    numeric = sp.lambdify(
        (a0, a1, *entries), c3.subs({alpha0: a0, alpha1: a1, **dict(zip(R_SHARP, entries))}), "numpy"
    )
    pair = AlphaPair(parse_profile("poly:1,0,0.5"), parse_profile("exp:1,0.3"), 1, 2)
    gauge = GaugeChoice(gamma=0.7, eps=parse_profile("poly:0,0.3"))
    rs = np.linspace(0.05, 1.0, 9)
    r_sharp = sharp(build_R(pair, gauge, rs))
    assert np.max(np.abs(r_sharp[:, 1, 0].imag)) > 0.05  # eps and gamma are active
    worst = max(
        np.max(np.abs(np.asarray(numeric(pair.alpha0(x), pair.alpha1(x), *m.ravel()), dtype=complex)))
        for x, m in zip(rs, r_sharp)
    )
    assert worst <= 1e-12
    # the same coefficient, read from the package's own K
    assert np.max(np.abs(kmat(pair.alpha1(rs)) @ r_sharp - r_sharp @ kmat(pair.alpha0(rs)))) <= 1e-12
