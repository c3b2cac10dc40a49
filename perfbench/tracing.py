"""Per-layer tracing from outside the package: wrap public functions, record spans.

Each public function and public method of the layer modules is replaced, at
every binding a caller can reach (``dynamolab.spectral.eigen`` and
``dynamolab.branches.eigen`` alike), by a wrapper that records a span: name,
layer, start, end and parent.  A span's self time is its duration minus that
of its direct children, so the self times of all spans under one root add up
to the root's duration.  Counts are read from return values after the call.

Work sizes that are not measured are labelled "computed": dense bytes of the
assembled matrix and eigensolver flops from the textbook operation counts
(about 10 N^3 for eigenvalues only and 25 N^3 with eigenvectors of an N x N
nonsymmetric matrix, Golub & Van Loan, Matrix Computations, 7.5.6).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("profiles", "grid", "operator", "spectral", "branches", "mre", "nogo", "darboux", "cli")
ROOT_LAYER = "bench"


def _eigen_extra(args, kwargs, ret) -> dict:
    size = ret.size
    with_vectors = ret.eigenvectors is not None
    return {"vec": int(with_vectors), "gflop": (25.0 if with_vectors else 10.0) * size**3 / 1e9}


def _riccati_steps(args, kwargs, ret) -> dict:
    per_node = ret[1]
    ok = np.isfinite(per_node)
    segments = int(ok[0]) + int(np.sum(ok[1:] & ~ok[:-1]))
    return {"steps": int(np.sum(ok)) - segments}


def _linear_extra(args, kwargs, ret) -> dict:
    from dynamolab.mre import COND_LOG_MAX

    return {"steps": ret.rs.size - 1, "ill": int(np.sum(ret.cond_log >= COND_LOG_MAX))}


# name -> function(args, kwargs, return value) -> counters stored on the span
EXTRAS = {
    "operator.assemble": lambda a, k, r: {"dense_mb": r.size**2 * 8 / 1e6},
    "spectral.eigen": _eigen_extra,
    "branches.sweep": lambda a, k, r: {"steps": r.c_values.size, "events": len(r.events)},
    "mre.mre_linear_solve": _linear_extra,
    "mre.riccati_residual": _riccati_steps,
    "nogo.StructureFunctions.rho": lambda a, k, r: {"points": int(np.size(r))},
    "nogo.nogo_certificate": lambda a, k, r: {"excluded": int(np.sum(r.excluded_samples))},
}


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list = []  # [name, layer, t0, t1, parent, extra]
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original)

    # ---- recording --------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = extra
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        extra_fn = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            extra = None
            try:
                ret = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, ret)
                return ret
            finally:
                tracer.close(idx, extra)

        return wrapper

    # ---- installing -------------------------------------------------------

    def install(self) -> None:
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"dynamolab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dynamolab" or mod_name.startswith("dynamolab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass
# --------------------------------------------------------------------------


PROFILE_EVAL = {"profiles.AlphaProfile.__call__", "profiles.AlphaProfile.d1", "profiles.AlphaProfile.d2"}
PENCIL = {"operator.pencil_coefficients", "operator.pencil_psi2", "operator.lambda_pm"}


def layer_metrics(spans: list, root: int) -> dict:
    """Per-layer metrics of the spans under ``root`` (one traced pass)."""
    n = len(spans)
    dur = np.array([s[3] - s[2] for s in spans])
    child_time = np.zeros(n)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child_time[s[4]] += dur[i]
    self_time = dur - child_time

    def ancestors(i):
        p = spans[i][4]
        while p >= 0:
            yield p
            p = spans[p][4]

    m = defaultdict(float)
    for layer in LAYERS + (ROOT_LAYER,):
        m[f"self.{layer}_s"] = 0.0
    for i, (name, layer, _, _, parent, extra) in enumerate(spans):
        m[f"self.{layer}_s"] += self_time[i]
        outer = parent < 0 or spans[parent][1] != layer
        if name in PROFILE_EVAL:
            m["profiles.eval.calls"] += 1
            if outer:
                m["profiles.eval.s"] += dur[i]
        elif layer == "grid" and outer:
            m["grid.ops.s"] += dur[i]
        elif name == "operator.assemble":
            m["operator.assemble.calls"] += 1
            m["operator.assemble.s"] += dur[i]
            m["operator.dense_mb_computed"] += extra["dense_mb"]
        elif name in PENCIL and outer:
            m["operator.pencil.s"] += dur[i]
        elif name == "spectral.eigen":
            m["spectral.eigen.calls"] += 1
            m["spectral.eigen.vec_calls"] += extra["vec"]
            m["spectral.eigen.s"] += dur[i]
            m["spectral.eigen.gflop_computed"] += extra["gflop"]
            for a in ancestors(i):
                if spans[a][0] == "branches.sweep":
                    m["branches.sweep.solves"] += 1
                    break
                if spans[a][0] == "branches.locate_ep":
                    m["branches.locate_ep.solves"] += 1
                    break
        elif name == "spectral.classify_pairs":
            m["spectral.classify_pairs.s"] += dur[i]
        elif name == "branches.sweep":
            m["branches.sweep.self_s"] += self_time[i]
            m["branches.grid_solves"] += extra["steps"]
            m["branches.events"] += extra["events"]
        elif name == "branches.locate_ep":
            m["branches.locate_ep.self_s"] += self_time[i]
        elif name == "mre.mre_linear_solve":
            m["mre.linear_solve.s"] += dur[i]
            m["mre.linear_solve.steps"] += extra["steps"]
            m["mre.ill_conditioned_nodes"] += extra["ill"]
        elif name == "mre.riccati_residual":
            m["mre.riccati_residual.s"] += dur[i]
            m["mre.riccati_residual.steps"] += extra["steps"]
        elif name == "nogo.nogo_certificate":
            m["nogo.certificate.self_s"] += self_time[i]
            m["nogo.q_floor_excluded"] += extra["excluded"]
        elif name == "nogo.intertwining_defect":
            m["nogo.intertwining_defect.calls"] += 1
            m["nogo.intertwining_defect.s"] += dur[i]
        elif name == "nogo.StructureFunctions.rho":
            m["nogo.rho_samples"] += extra["points"]
        elif name == "darboux.darboux_partner":
            m["darboux.partner.s"] += dur[i]
        elif name == "darboux.verify_isospectral":
            m["darboux.verify_isospectral.s"] += dur[i]
    m["cli.self_s"] = m.pop("self.cli_s")
    solves = m.pop("branches.sweep.solves", 0.0)
    m["branches.refine_solves"] = solves - m["branches.grid_solves"]
    m["branches.useful_ratio"] = m["branches.grid_solves"] / solves if solves else 0.0
    m["trace.wall_s"] = dur[root]
    return dict(m)
