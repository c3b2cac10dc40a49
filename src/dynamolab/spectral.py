"""Eigensolves (dense or certified local), conjugate-pair classification, Jordan probes.

The assembled dynamo matrix is real, so its spectrum is closed under complex
conjugation; J-symmetry sharpens that statement to "real or conjugate pairs".
This module computes spectra with LAPACK's dense nonsymmetric solver dgeev,
through numpy, with its eigenvectors when they are asked for, or, for a
certified leading solve, with ARPACK's Ritz vectors (below).  It classifies
each eigenvalue as real or as one partner of a conjugate pair, and provides a
diagnostic probe for Jordan-Keldysh chains (eigenvector plus associated
vector) near two-fold degeneracies.

A caller that needs only the eigenvalues near a few known points (branch
tracking, exceptional-point bisection) passes them as ``near``.  For an
assembled dynamo operator ``eigen`` then runs ARPACK in shift-invert mode
(Lehoucq, Sorensen & Yang, 1998), each of its solves a back substitution
through one LAPACK band LU of H - sigma, and returns the eigenvalues nearest
a real shift sigma, together with a disk |lambda - sigma| < radius that
contains every eigenvalue of the operator inside it.  A caller accepts a
local result only when its decision provably depends on nothing outside that
disk (``Spectrum.covers``), and otherwise asks for the dense one.
The disk rests on ARPACK's converged Ritz values being the eigenvalues of
largest |1/(lambda - sigma)|; a Krylov method cannot see the multiplicity of
a double eigenvalue, so at alpha == 0, where every eigenvalue is double, the
solve stays dense.

A caller that needs only the k leading eigenvalues (largest real part)
passes ``leading=k``.  ARPACK then returns the eigenvalues nearest 0, and the
result is accepted only when an argument-principle count of the eigenvalues
right of a line Re z = s, read from the pivots of the O(n) block LU of
H - (s + iy), equals the number returned there; otherwise the solve is dense.
With vectors asked for as well, the same ARPACK call returns them, each
checked against the residual contract; a dense fallback returns every
eigenvalue with its dgeev vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ClassificationError, DomainError, ShapeError, SolverError
from .operator import DynamoMatrix

REAL_TAG = -1
PAIR_TOL = 1e-8  # |Im| at or below this is real; a pair's conjugates close within it


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (Re desc, Im desc), optional eigenvectors, pair tags.

    eigenvectors, when asked for, is a complex array with one unit column per
    eigenvalue, from dgeev or, for a certified leading solve, ARPACK's Ritz
    vectors; a conjugate pair has conjugate columns.
    pair_index[i] is REAL_TAG (-1) for a real eigenvalue and the index of the
    conjugate partner otherwise; None until classify_pairs has run.  disk and
    right_of are None for a full spectrum.  For a local one disk is
    (sigma, radius), and every eigenvalue of the operator with
    |lambda - sigma| < radius is listed; for a leading one right_of is s, and
    every eigenvalue with Re lambda > s is listed.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    pair_index: Optional[np.ndarray]
    disk: Optional[Tuple[float, float]] = None
    right_of: Optional[float] = None

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def labels(self) -> list[str]:
        if self.pair_index is None:
            raise ClassificationError("spectrum has not been classified yet")
        return ["Real" if k == REAL_TAG else "Pair" for k in self.pair_index]

    def covers(self, points, reach: float) -> bool:
        """True when every eigenvalue within ``reach`` of any of ``points`` is listed."""
        if self.right_of is not None:
            return bool(np.min(np.asarray(points).real) - reach > self.right_of)
        if self.disk is None:
            return True
        sigma, radius = self.disk
        return bool(reach < radius - np.max(np.abs(np.asarray(points) - sigma)))


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DynamoMatrix):
        return m.matrix
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


_RESIDUAL_BOUND = 1e-8
_V0_SEED = 20020813  # fixed ARPACK start vector: repeated runs give identical bytes
# Shift-invert Ritz values converge to ARPACK's default relative tolerance
# (machine epsilon) in 1/(lambda - sigma); the certified radius stays this
# far inside the farthest returned eigenvalue so rounding cannot reorder them.
_DISK_MARGIN = 1e-10
# The sampling rule of the argument-principle count (``_count_right``).
_COUNT_SAMPLES = 64
_COUNT_DECADES = 16
_COUNT_TAIL = 1e-3
_PHASE_STEP = np.pi / 4
_COUNT_ROUNDS = 24  # each round is one pass over the nodes
_COUNT_MAX_SAMPLES = 1024  # the pivots of every sample are held at once
_COUNT_SLACK = 0.05


@lru_cache(maxsize=16)
def _start_vector(size: int) -> np.ndarray:
    """The fixed start vector of a size, read-only (eigs copies it)."""
    v0 = np.random.default_rng(_V0_SEED).standard_normal(size)
    v0.setflags(write=False)
    return v0


def _shift_invert(m: DynamoMatrix, sigma: float):
    """ARPACK in shift-invert mode at a real shift: returns ``nearest(k, vectors=False)``, or None.

    ``nearest(k)`` gives the k eigenvalues of largest |1/(lambda - sigma)|,
    and ``nearest(k, vectors=True)`` gives them with their Ritz vectors as
    (values, vectors); None when ARPACK fails.  H - sigma is factored once
    for every k, by LAPACK's band LU (dgbtrf) of ``DynamoMatrix.band``, and
    each of ARPACK's solves is one dgbtrs.  None when sigma is an eigenvalue
    to working precision (an exactly zero pivot).

    ARPACK runs in the band's node-by-node numbering, (u1_i, u2_i), not in
    H's block numbering.  The eigenvalues do not depend on the numbering; the
    Ritz vectors do, and ``_ritz_vectors`` maps them back.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    kl, ku = m.BAND
    lu, piv, info = dgbtrf(m.band(sigma), kl, ku, overwrite_ab=1)
    if info:
        return None
    v0 = _start_vector(m.size)
    inverse = LinearOperator((m.size,) * 2, matvec=lambda b: dgbtrs(lu, kl, ku, b, piv)[0], dtype=float)

    def nearest(k: int, vectors: bool = False):
        try:
            # with OPinv given, eigs uses only the shape and dtype of its first argument
            return eigs(inverse, k, sigma=sigma, OPinv=inverse, v0=v0, return_eigenvectors=vectors)
        except ArpackError:  # ArpackNoConvergence included
            return None

    return nearest


def _sorted(vals: np.ndarray, vecs: Optional[np.ndarray] = None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Complex eigenvalues sorted by (Re desc, Im desc), read-only, and the columns of ``vecs`` in their order."""
    vals = vals.astype(complex, copy=False)  # numpy gives a real array when every eigenvalue is real
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    vals.setflags(write=False)
    return vals, None if vecs is None else vecs[:, order]


def _local_eigen(m: DynamoMatrix, near: np.ndarray) -> Optional[Spectrum]:
    """Eigenvalues nearest a real shift at the middle of Re(near), or None.

    ARPACK returns the k eigenvalues of largest |1/(lambda - sigma)|, so no
    other eigenvalue is nearer to sigma than the farthest one returned.  k
    starts at len(near) + 4 and doubles until that radius is twice the spread
    of ``near`` around sigma; None when k reaches the ARPACK limit N - 1 or
    ARPACK fails, and the caller solves densely.
    """
    sigma = 0.5 * (float(near.real.min()) + float(near.real.max()))
    spread = float(np.max(np.abs(near - sigma)))
    nearest = _shift_invert(m, sigma)
    if nearest is None:
        return None
    k = near.size + 4
    while k < m.size - 1:
        vals = nearest(k)
        if vals is None:
            return None
        radius = float(np.max(np.abs(vals - sigma))) * (1.0 - _DISK_MARGIN)
        if radius > 2.0 * spread:
            return Spectrum(_sorted(vals)[0], None, None, disk=(sigma, radius))
        k *= 2
    return None


def _count_right(m: DynamoMatrix, s: float) -> Optional[int]:
    """The number of eigenvalues with Re lambda > s, by the argument principle, or None.

    Along the line z = s + iy the phase of det(H - z) changes by
    pi (N - 2 N_right) as y runs over the real line, half of it over y >= 0
    (H is real).  det(H - z) is the product of the block-LU pivot
    determinants (``DynamoMatrix.pivot_determinants``), so the change is
    summed pivot by pivot from y = 0 to Y over y = 0 and _COUNT_SAMPLES
    (64) log-spaced points spanning _COUNT_DECADES decades below Y, one
    block-LU pass of 65 shifts, each pivot's step between two samples taken
    into [-pi, pi] by adding or subtracting 2 pi where the difference of the
    two args leaves it.  Y is large enough that the phase left out beyond it
    is at most N (||H|| + |s|) / Y = _COUNT_TAIL.  Every interval where one
    pivot's phase moves by more than _PHASE_STEP is bisected, one more pass
    per round, for at most _COUNT_ROUNDS rounds and _COUNT_MAX_SAMPLES
    (1,024) samples.

    This is a sampling rule, not a proof: a pivot whose phase turns by a
    whole multiple of 2 pi between two samples goes unseen.  (A bound on the
    total phase instead aliases whole windings: it counted 24 eigenvalues for
    12 at n=60.)  None when the rule does not settle within its caps, a pivot
    is zero or not finite, the count is not within _COUNT_SLACK of an
    integer, or Y overflows.
    """
    size = m.size
    with np.errstate(over="ignore"):  # an overflow fails the check below
        top = size * (m.norm_inf() + abs(s)) / _COUNT_TAIL
    if not np.isfinite(top):
        return None
    ys = np.concatenate(([0.0], np.geomspace(top * 10.0**-_COUNT_DECADES, top, _COUNT_SAMPLES)))
    phase = _pivot_phases(m, s, ys)
    for rounds in range(_COUNT_ROUNDS + 1):
        if phase is None:
            return None
        steps = np.diff(phase, axis=1)
        steps[steps > np.pi] -= 2.0 * np.pi  # each step into [-pi, pi]
        steps[steps < -np.pi] += 2.0 * np.pi
        coarse = np.flatnonzero(np.max(np.abs(steps), axis=0) > _PHASE_STEP)
        if coarse.size == 0:
            right = 0.5 * size - float(np.sum(steps)) / np.pi
            count = round(right)
            return count if abs(right - count) <= _COUNT_SLACK else None
        if rounds == _COUNT_ROUNDS or ys.size + coarse.size > _COUNT_MAX_SAMPLES:
            return None
        mid = 0.5 * (ys[coarse] + ys[coarse + 1])
        more = _pivot_phases(m, s, mid)
        ys = np.insert(ys, coarse + 1, mid)
        phase = None if more is None else np.insert(phase, coarse + 1, more, axis=1)


def _pivot_phases(m: DynamoMatrix, s: float, ys: np.ndarray) -> Optional[np.ndarray]:
    """arg of the (n, len(ys)) pivot determinants of H - (s + iy), from one pass; None if one is zero or not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dets = m.pivot_determinants(s + 1j * ys)
    if not (np.isfinite(dets).all() and dets.all()):
        return None
    return np.angle(dets)


def _leading_cut(vals: np.ndarray, count: int) -> Optional[Tuple[int, float]]:
    """(j, s) for sorted eigenvalues: vals[:j] are those right of the line Re z = s.

    s lies halfway between the real part of the count-th value and the next
    smaller one, so j >= count.  None when count reaches the number of values
    or no value lies left of the count-th.
    """
    if count >= vals.size:
        return None
    below = np.flatnonzero(vals.real < vals[count - 1].real)
    if not below.size:
        return None
    j = int(below[0])
    return j, 0.5 * (vals[j - 1].real + vals[j].real)


def _leading_eigen(m: DynamoMatrix, count: int, want_vectors: bool) -> Optional[Spectrum]:
    """At least the ``count`` leading eigenvalues, certified by ``_count_right``, or None.

    Shift-invert ARPACK at sigma = 0 returns the k = count + 4 eigenvalues
    nearest 0.  Sorted by real part, the line Re z = s of ``_leading_cut``
    certifies them when _count_right(s) equals the number of returned values
    right of s: then no eigenvalue right of s was missed.  On a mismatch k
    doubles once; None when that fails too, when ARPACK fails, and when
    4k >= N, where the 2k + 1 Arnoldi vectors of the doubled k would not
    fit.  With want_vectors the same ARPACK call returns the Ritz vectors
    (``_ritz_vectors``); None also when one of them misses the residual
    contract.
    """
    k = count + 4
    if 4 * k >= m.size:
        return None
    nearest = _shift_invert(m, 0.0)
    if nearest is None:
        return None
    for k in (k, 2 * k):
        got = nearest(k, want_vectors)
        if got is None:
            return None
        vals, vecs = _sorted(*got) if want_vectors else _sorted(got)
        cut = _leading_cut(vals, count)
        if cut is not None and _count_right(m, cut[1]) == cut[0]:
            j, s = cut
            if want_vectors:
                vecs = _ritz_vectors(m, vals[:j], vecs[:, :j])
                if vecs is None:
                    return None
            return Spectrum(vals[:j], vecs, None, right_of=s)
    return None


def _ritz_vectors(m: DynamoMatrix, vals: np.ndarray, ritz: np.ndarray) -> Optional[np.ndarray]:
    """ARPACK's Ritz vectors as unit columns in H's block numbering, or None when one misses the residual contract.

    The band numbers the unknowns node by node, (u1_i, u2_i), so u1 sits in
    the even rows and u2 in the odd ones.  scipy builds the -Im member of a
    conjugate pair from the same two real ARPACK columns as the conjugate of
    its partner's vector, so a pair has conjugate columns, as from dgeev.
    """
    vecs = np.concatenate([ritz[0::2], ritz[1::2]])
    vecs /= np.linalg.norm(vecs, axis=0)
    if _residual_check(m, vals, vecs)[2].size:
        return None
    vecs.setflags(write=False)
    return vecs


def eigen(
    m, want_vectors: bool = False, near: Optional[Sequence[complex]] = None, leading: Optional[int] = None
) -> Spectrum:
    """Spectrum of a dynamo matrix (or any square array), deterministically sorted.

    The eigenvalues come from dgeev, values only.  With want_vectors an
    assembled dynamo operator gets dgeev's unit eigenvectors too, one column
    per sorted eigenvalue, each checked against the residual contract
    ||H v - lambda v|| <= 1e-8 ||H||_inf (SolverError on a violation); a raw
    array with want_vectors raises ShapeError.

    With ``near`` (and no vectors) an assembled dynamo operator with alpha not
    identically zero gets the local shift-invert solve: the eigenvalues
    nearest the points, with ``disk`` set.  With ``leading`` instead it gets
    at least that many leading eigenvalues by shift-invert ARPACK, certified
    by an argument-principle count, with ``right_of`` set, whenever the
    Arnoldi vectors fit, 4 (leading + 4) < N; larger requests stay dense.
    With want_vectors as well each of them comes with its Ritz vector from the
    same ARPACK call.  Every other case, and a partial solve that cannot
    finish or be certified, gives the full dense spectrum, with every vector
    when they are asked for.  A raw array with a non-finite entry, and a
    non-finite ``near`` point, raise DomainError.
    """
    if want_vectors and not isinstance(m, DynamoMatrix):
        raise ShapeError("eigenvectors need an assembled dynamo operator, not a raw array")
    if leading is not None and leading < 1:
        raise ShapeError(f"leading must be at least 1, got {leading}")
    near = None if near is None else np.asarray(near, dtype=complex).ravel()
    if near is not None and not np.isfinite(near).all():
        raise DomainError(f"near points must be finite, got {near.tolist()!r}")
    partial = None
    if isinstance(m, DynamoMatrix) and np.any(m.alpha_nodes):
        if near is not None and not want_vectors:
            if near.size == 0:
                raise ShapeError("near must hold at least one point")
            partial = _local_eigen(m, near)
        elif near is None and leading is not None:
            partial = _leading_eigen(m, leading, want_vectors)
    if partial is not None:
        return partial
    a = _as_matrix(m)
    try:
        vals, vecs = _sorted(*np.linalg.eig(a)) if want_vectors else _sorted(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"dense eigensolver did not converge: {exc}") from exc
    if want_vectors:
        vecs = vecs.astype(complex, copy=False)  # real when every eigenvalue is real
        resid, bound, bad = _residual_check(m, vals, vecs)
        if bad.size:
            raise SolverError(
                f"eigenpair residual contract violated: ||Mv-lv||={resid[bad[0]]:.3e} "
                f"> {bound:.3e} at eigenvalue {vals[bad[0]]!r}"
            )
        vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, pair_index=None)


def _residual_check(m: DynamoMatrix, vals: np.ndarray, vecs: np.ndarray) -> tuple:
    """(residuals, bound, failing columns) of the contract ||H v - lambda v|| <= 1e-8 ||H|| for unit columns."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf residual fails the contract below
        resid = np.linalg.norm(m.matvec(vecs) - vecs * vals, axis=0)
    bound = _RESIDUAL_BOUND * m.norm_inf()
    return resid, bound, np.flatnonzero(~(resid <= bound))


def classify_pairs(spec: Spectrum) -> Spectrum:
    """Tag each eigenvalue Real or as one half of a conjugate pair.

    Greedy nearest-conjugate matching with ties broken by smallest index; an
    eigenvalue with |Im| > PAIR_TOL and no partner within PAIR_TOL raises
    ClassificationError (impossible for exactly real matrices, whose dgeev
    pairs are exact conjugates).
    """
    vals = spec.eigenvalues
    tags = np.full(vals.shape[0], REAL_TAG, dtype=int)
    is_open = np.abs(vals.imag) > PAIR_TOL
    for i in np.flatnonzero(is_open).tolist():
        if not is_open[i]:
            continue
        is_open[i] = False
        diff = vals[i] - np.conj(vals)
        d = np.where(is_open, np.hypot(diff.real, diff.imag), np.inf)  # hypot rounds like abs()
        best = int(np.argmin(d))  # the first minimum: ties go to the smallest index
        if not d[best] <= PAIR_TOL:
            raise ClassificationError(
                f"unpaired complex eigenvalue {vals[i]!r} "
                f"(nearest conjugate distance {d[best]:.3e}, PAIR_TOL {PAIR_TOL:.3e})"
            )
        is_open[best] = False
        tags[i] = best
        tags[best] = i
    return replace(spec, pair_index=tags)


@dataclass(frozen=True)
class JordanProbe:
    """Diagnostic record for a candidate Jordan-Keldysh chain at lambda0.

    chain_residual near zero means an associated vector chi with
    (M - lambda0) chi = psi exists to working precision; near one means the
    eigenvector is isolated (no chain).  No verdict is attached: thresholds
    belong to the caller.
    """

    eigvec_residual: float
    chain_residual: float
    chain_vector: np.ndarray


_JORDAN_RCOND = 1e-8


def jordan_probe(m, lambda0: complex, psi: np.ndarray) -> JordanProbe:
    """Solve (M - lambda0) chi = psi by rank-revealing least squares.

    Singular directions at or below _JORDAN_RCOND * sigma_max are projected
    out (LAPACK gelsd), so chi is the minimum-norm solution restricted to the
    numerically well-posed subspace; residuals are reported relative to
    ||psi||.  A non-finite lambda0 or psi raises DomainError.
    """
    a = _as_matrix(m).astype(complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (a.shape[0],):
        raise ShapeError(f"psi must have length {a.shape[0]}, got shape {psi.shape}")
    if not (np.isfinite(lambda0) and np.isfinite(psi).all()):
        raise DomainError(f"lambda0 and psi must be finite, got lambda0={lambda0!r}")
    norm_psi = np.linalg.norm(psi)
    if norm_psi == 0:
        raise ShapeError("psi must be nonzero")
    shifted = a - lambda0 * np.eye(a.shape[0])
    eig_res = float(np.linalg.norm(shifted @ psi) / norm_psi)
    chi = np.linalg.lstsq(shifted, psi, rcond=_JORDAN_RCOND)[0]  # gelsd drops s <= rcond * s_max
    chain_res = float(np.linalg.norm(shifted @ chi - psi) / norm_psi)
    return JordanProbe(eigvec_residual=eig_res, chain_residual=chain_res, chain_vector=chi)
