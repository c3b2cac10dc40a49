"""Eigensolves (dense or certified local), conjugate-pair classification, Jordan probes.

The assembled dynamo matrix is real, so its spectrum is closed under complex
conjugation; J-symmetry sharpens that statement to "real or conjugate pairs".
This module computes spectra with LAPACK's dense nonsymmetric solver dgeev,
through numpy, classifies each eigenvalue as real or as one partner of a
conjugate pair, and provides a diagnostic probe for Jordan-Keldysh chains
(eigenvector plus associated vector) near two-fold degeneracies.

A caller that needs only the eigenvalues near a few known points (branch
tracking, exceptional-point bisection) passes them as ``near``.  For an
assembled dynamo operator ``eigen`` then runs ARPACK in shift-invert mode
(Lehoucq, Sorensen & Yang, 1998) on the sparse operator and returns the
eigenvalues nearest a real shift sigma, together with a disk |lambda - sigma|
< radius that contains every eigenvalue of the operator inside it.  A caller
accepts a local result only when its decision provably depends on nothing
outside that disk (``Spectrum.covers``), and otherwise asks for the dense one.
The disk rests on ARPACK's converged Ritz values being the eigenvalues of
largest |1/(lambda - sigma)|; a Krylov method cannot see the multiplicity of
a double eigenvalue, so at alpha == 0, where every eigenvalue is double, the
solve stays dense.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ClassificationError, DomainError, ShapeError, SolverError
from .operator import DynamoMatrix

REAL_TAG = -1


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (Re desc, Im desc), optional eigenvectors, pair tags.

    pair_index[i] is REAL_TAG (-1) for a real eigenvalue and the index of the
    conjugate partner otherwise; None until classify_pairs has run.  disk is
    None for a full spectrum; for a local one it is (sigma, radius), and every
    eigenvalue of the operator with |lambda - sigma| < radius is listed.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    pair_index: Optional[np.ndarray]
    pair_tol: Optional[float]
    disk: Optional[Tuple[float, float]] = None

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def labels(self) -> list[str]:
        if self.pair_index is None:
            raise ClassificationError("spectrum has not been classified yet")
        return ["Real" if k == REAL_TAG else "Pair" for k in self.pair_index]

    def covers(self, points, reach: float) -> bool:
        """True when every eigenvalue within ``reach`` of any of ``points`` is listed."""
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


@lru_cache(maxsize=16)
def _start_vector(size: int) -> np.ndarray:
    """The fixed ARPACK start vector of a size, read-only (eigs copies it)."""
    v0 = np.random.default_rng(_V0_SEED).standard_normal(size)
    v0.setflags(write=False)
    return v0


def _local_eigen(m: DynamoMatrix, near: np.ndarray) -> Optional[Spectrum]:
    """Eigenvalues nearest a real shift at the middle of Re(near), or None.

    ARPACK returns the k eigenvalues of largest |1/(lambda - sigma)|, so no
    other eigenvalue is nearer to sigma than the farthest one returned.  k
    starts at len(near) + 4 and doubles until that radius is twice the spread
    of ``near`` around sigma; None when k reaches the ARPACK limit N - 1 or
    ARPACK fails, and the caller solves densely.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

    size = m.size
    sigma = 0.5 * (float(near.real.min()) + float(near.real.max()))
    spread = float(np.max(np.abs(near - sigma)))
    shifted = m.to_csc(shift=sigma)
    v0 = _start_vector(size)
    k = near.size + 4
    try:
        inverse = LinearOperator(shifted.shape, matvec=splu(shifted).solve, dtype=float)
    except RuntimeError:  # sigma is an eigenvalue to working precision
        return None
    while k < size - 1:
        try:
            # with OPinv given, eigs uses only the shape and dtype of its first argument
            vals = eigs(shifted, k, sigma=sigma, OPinv=inverse, v0=v0, return_eigenvectors=False)
        except ArpackError:  # ArpackNoConvergence included
            return None
        radius = float(np.max(np.abs(vals - sigma))) * (1.0 - _DISK_MARGIN)
        if radius > 2.0 * spread:
            vals = vals[np.lexsort((-vals.imag, -vals.real))]
            vals.setflags(write=False)
            return Spectrum(vals, None, None, None, disk=(sigma, radius))
        k *= 2
    return None


def eigen(m, want_vectors: bool = False, near: Optional[Sequence[complex]] = None) -> Spectrum:
    """Spectrum of a dynamo matrix (or any square array), deterministically sorted.

    With want_vectors the columns of ``eigenvectors`` match the sorted
    eigenvalues and are verified against the residual contract
    ||M v - lambda v|| <= 1e-8 ||M|| ||v||.

    With ``near`` (and no vectors) an assembled dynamo operator with alpha not
    identically zero gets the local shift-invert solve: the eigenvalues
    nearest the points, with ``disk`` set.  Every other case, and a local
    solve that cannot finish, gives the full dense spectrum.  A raw array
    with a non-finite entry raises DomainError.
    """
    if near is not None and not want_vectors and isinstance(m, DynamoMatrix) and np.any(m.alpha_nodes):
        near = np.asarray(near, dtype=complex).ravel()
        if near.size == 0:
            raise ShapeError("near must hold at least one point")
        local = _local_eigen(m, near)
        if local is not None:
            return local
    a = _as_matrix(m)
    try:
        if want_vectors:
            vals, vecs = np.linalg.eig(a)
        else:
            vals = np.linalg.eigvals(a)
            vecs = None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"dense eigensolver did not converge: {exc}") from exc
    vals = vals.astype(complex, copy=False)  # numpy gives a real array when every eigenvalue is real
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    vals.setflags(write=False)
    if vecs is not None:
        vecs = vecs[:, order]
        vecs.setflags(write=False)
        norm_m = np.linalg.norm(a, np.inf)
        if np.iscomplexobj(vecs):  # two real products: a complex matmul costs four
            r = np.empty_like(vecs)
            r.real = a @ vecs.real
            r.imag = a @ vecs.imag
            r -= vecs * vals
        else:
            r = a @ vecs - vecs * vals
        resid = np.linalg.norm(r, axis=0)
        bound = _RESIDUAL_BOUND * norm_m * np.linalg.norm(vecs, axis=0)
        worst = int(np.argmax(resid - bound))
        if resid[worst] > bound[worst]:
            raise SolverError(
                f"eigenpair residual contract violated: ||Mv-lv||={resid[worst]:.3e} "
                f"> {bound[worst]:.3e} at eigenvalue {vals[worst]!r}"
            )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, pair_index=None, pair_tol=None)


def classify_pairs(spec: Spectrum, pair_tol: float) -> Spectrum:
    """Tag each eigenvalue Real or as one half of a conjugate pair.

    Greedy nearest-conjugate matching with ties broken by smallest index; an
    eigenvalue with |Im| > pair_tol and no partner within pair_tol raises
    ClassificationError (impossible for exactly real matrices unless the
    tolerance is misconfigured).
    """
    if pair_tol <= 0:
        raise ClassificationError(f"pair_tol must be positive, got {pair_tol}")
    vals = spec.eigenvalues
    n = vals.shape[0]
    tags = np.full(n, REAL_TAG, dtype=int)
    unmatched = [i for i in range(n) if abs(vals[i].imag) > pair_tol]
    open_set = set(unmatched)
    for i in unmatched:
        if i not in open_set:
            continue
        open_set.discard(i)
        best = None
        best_d = np.inf
        for j in sorted(open_set):
            d = abs(vals[i] - np.conj(vals[j]))
            if d < best_d - 0.0:
                best_d = d
                best = j
        if best is None or best_d > pair_tol:
            raise ClassificationError(
                f"unpaired complex eigenvalue {vals[i]!r} "
                f"(nearest conjugate distance {best_d:.3e}, pair_tol {pair_tol:.3e})"
            )
        open_set.discard(best)
        tags[i] = best
        tags[best] = i
    return replace(spec, pair_index=tags, pair_tol=pair_tol)


@dataclass(frozen=True)
class JordanProbe:
    """Diagnostic record for a candidate Jordan-Keldysh chain at lambda0.

    chain_residual near zero means an associated vector chi with
    (M - lambda0) chi = psi exists to working precision; near one means the
    eigenvector is isolated (no chain).  No verdict is attached: thresholds
    belong to the caller.
    """

    lambda0: complex
    eigvec_residual: float
    chain_residual: float
    chain_vector: np.ndarray


_JORDAN_RCOND = 1e-8


def jordan_probe(m, lambda0: complex, psi: np.ndarray) -> JordanProbe:
    """Solve (M - lambda0) chi = psi by rank-revealing least squares.

    Singular directions below _JORDAN_RCOND * sigma_max are projected out, so
    chi is the minimum-norm solution restricted to the numerically well-posed
    subspace; residuals are reported relative to ||psi||.
    """
    a = _as_matrix(m).astype(complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (a.shape[0],):
        raise ShapeError(f"psi must have length {a.shape[0]}, got shape {psi.shape}")
    norm_psi = np.linalg.norm(psi)
    if norm_psi == 0:
        raise ShapeError("psi must be nonzero")
    shifted = a - lambda0 * np.eye(a.shape[0])
    eig_res = float(np.linalg.norm(shifted @ psi) / norm_psi)
    u, s, vh = np.linalg.svd(shifted)
    keep = s > _JORDAN_RCOND * (s[0] if s[0] > 0 else 1.0)
    coeff = (u.conj().T @ psi)[keep] / s[keep]
    chi = vh.conj().T[:, keep] @ coeff
    chain_res = float(np.linalg.norm(shifted @ chi - psi) / norm_psi)
    return JordanProbe(
        lambda0=complex(lambda0),
        eigvec_residual=eig_res,
        chain_residual=chain_res,
        chain_vector=chi,
    )
