"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced function with a wrapper at every
module binding inside the package (``enumerate_basis``, for one, is
imported by name into checks, charfn, dilation and submodules) and
wraps each registered check's ``run``.  A wrapper records a span
(id, parent id, name, start ns, end ns) in memory and adds the span's
duration minus its wrapped callees' durations to the name's self time.
Counts marked "computed" derive from argument and result shapes only, so
they repeat exactly for one seed.

Flop formulas (Golub & Van Loan, Matrix Computations), for an m x n
complex operand with k = min(m, n), counted at 4 real flops per complex
multiply-add:
  QR (Householder factorization)  4 * (4mnk - 2(m + n)k^2 + 4k^3/3)
  SVD (singular values only)      4 * (4 max(m,n) k^2 - 4k^3/3)
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

from hardymodel import charfn, checks, cli, contraction, dilation, generators, hardy, linops, submodules

#: (owner, attribute, span name); several attributes may share a name
TRACED = (
    (linops, "orthonormalize", "linops.orthonormalize"),
    (linops, "operator_norm", "linops.operator_norm"),
    (linops, "hermitian_sqrt", "linops.hermitian_sqrt"),
    (linops, "solve_shifted", "linops.resolvent"),
    (linops, "apply_shifted_inverse", "linops.resolvent"),
    (linops.Subspace, "__post_init__", "linops.subspace_check"),
    (contraction, "validate_tuple", "contraction.validate_tuple"),
    (contraction, "joint_defect", "contraction.joint_defect"),
    (contraction, "mobius_tuple", "contraction.mobius_tuple"),
    (hardy, "enumerate_basis", "hardy.enumerate_basis"),
    (hardy, "mult_operator", "hardy.mult_operator"),
    (hardy, "shift", "hardy.shift"),
    (hardy, "parity_shift", "hardy.parity_shift"),
    (hardy, "kernel_vector", "hardy.kernel_vector"),
    (hardy, "is_inner_on_truncation", "hardy.is_inner_on_truncation"),
    (hardy, "wandering_subspace", "hardy.wandering_subspace"),
    (dilation, "canonical_embedding", "dilation.canonical_embedding"),
    (dilation, "embedding_for_tolerance", "dilation.embedding_for_tolerance"),
    (dilation, "verify_dilation", "dilation.verify_dilation"),
    (dilation, "norm_identity", "dilation.norm_identity"),
    (dilation, "defect_transfer_check", "dilation.defect_transfer_check"),
    (dilation, "defect_span_completeness", "dilation.defect_span_completeness"),
    (dilation, "power_search", "dilation.power_search"),
    (charfn, "charfn_build", "charfn.charfn_build"),
    (charfn, "charfn_eval", "charfn.charfn_eval"),
    (charfn, "kernel_identity_residual", "charfn.kernel_identity_residual"),
    (charfn, "boundary_unitarity", "charfn.boundary_unitarity"),
    (charfn, "poly_truncate", "charfn.poly_truncate"),
    (charfn, "quotient_model_check", "charfn.quotient_model_check"),
    (charfn, "projection_identity_residual", "charfn.projection_identity_residual"),
    (submodules, "submodule_from_inner", "submodules.submodule_from_inner"),
    (submodules, "submodule_from_generators", "submodules.submodule_from_generators"),
    (submodules, "wandering_generator_extract", "submodules.wandering_generator_extract"),
    (submodules, "quotient_tensor_build", "submodules.quotient_tensor_build"),
    (submodules, "projector_product_check", "submodules.projector_product_check"),
    (submodules, "kernel_fixed_point_residual", "submodules.kernel_fixed_point_residual"),
    (cli, "load_scenario", "cli.load_scenario"),
    (cli, "run_scenario", "cli.run_scenario"),
    (generators, "controlled_contraction", "generators"),
    (generators, "tuple_ensemble", "generators"),
    (generators, "random_probes", "generators"),
    (generators, "random_moebius_point", "generators"),
)

#: span names reported as <name>.calls and <name>.self_ms
FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in TRACED if "." in name and not name.startswith("cli.")))
QM_DEGREES = (32, 40, 48)

#: spans each workload must record; the traced run fails if one records
#: no call.  suite-cold runs all 23 checks, which between them call every
#: traced function but hardy.wandering_subspace (no check calls it).
#: dense-verify lists what its two checks exercise; incidental callees
#: (say, linops.subspace_check) are left out so that removing them does
#: not break the benchmark.
EXPECTED_CALLS: dict[str, tuple] = {
    "dense-verify": (
        "charfn.quotient_model_check",
        "charfn.projection_identity_residual",
        "charfn.poly_truncate",
        "dilation.canonical_embedding",
        "hardy.enumerate_basis",
        "hardy.mult_operator",
        "linops.orthonormalize",
        "linops.operator_norm",
        "checks.quotient-model",
        "checks.projection-identity",
        "generators",
    ),
    "suite-cold": (
        *dict.fromkeys(name for _, _, name in TRACED if name != "hardy.wandering_subspace"),
        *(f"checks.{name}" for name in checks.REGISTRY),
    ),
}

#: per-layer metric name -> unit, in report order
PER_LAYER = {
    **{f"{f}.{k}": u for f in FUNCTIONS for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "linops.orthonormalize.cols_in": "count",
    "linops.svd_flops_computed": "flop",
    "linops.qr_flops_computed": "flop",
    "contraction.validate_per_embedding": "ratio",
    "hardy.basis_cache.hit_ratio": "ratio",
    "hardy.mult_operator.nnz_out": "count",
    "hardy.basis_size.max": "count",
    "dilation.embedding_attempts_per_model": "ratio",
    "dilation.embedding_rows": "count",
    "charfn.hermitian_sqrt_per_eval": "ratio",
    "charfn.poly_truncate.terms": "count",
    **{f"charfn.quotient_model_check.d{d}.ms": "ms" for d in QM_DEGREES},
    **{f"checks.{name}.p50_ms": "ms" for name in checks.REGISTRY},
    "cli.load_scenario.self_ms": "ms",
    "cli.run_scenario.self_ms": "ms",
    "generators.self_ms": "ms",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def qr_flops(m: int, n: int) -> int:
    k = min(m, n)
    return 4 * round(4 * m * n * k - 2 * (m + n) * k * k + 4 * k**3 / 3)


def svd_flops(m: int, n: int) -> int:
    k = min(m, n)
    return 4 * round(4 * max(m, n) * k * k - 4 * k**3 / 3)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.qm_ns: Counter = Counter()
        self.spans: list = []
        self._stack: list = []  # [span id, name, child ns]
        self._next_id = 0
        self._undo: list = []

    def _active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # hooks: pre(args, kwargs) before the call, post(args, kwargs, result, ns) after it
    def _pre_orthonormalize(self, args, kwargs):
        shape = np.shape(_arg(args, kwargs, 0, "vectors"))
        m, n = (shape[0], 1) if len(shape) == 1 else shape
        self.counts["cols_in"] += n
        if m and n:
            self.counts["qr_flops"] += qr_flops(m, n)

    def _pre_operator_norm(self, args, kwargs):
        shape = _arg(args, kwargs, 0, "a").shape
        if len(shape) == 2 and min(shape):
            self.counts["svd_flops"] += svd_flops(*shape)

    def _pre_enumerate_basis(self, args, kwargs):
        key = (_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "d"))
        self.counts["basis_hits"] += key in getattr(hardy, "_BASIS_CACHE", {})

    def _post_enumerate_basis(self, args, kwargs, result, ns):
        self.counts["basis_size_max"] = max(self.counts["basis_size_max"], result.size)

    def _post_mult_operator(self, args, kwargs, result, ns):
        m = result.matrix
        self.counts["nnz_out"] += m.nnz if sp.issparse(m) else int(np.count_nonzero(m))

    def _pre_validate_tuple(self, args, kwargs):
        self.counts["validate_in_embedding"] += self._active("dilation.canonical_embedding")

    def _pre_hermitian_sqrt(self, args, kwargs):
        self.counts["sqrt_in_eval"] += self._active("charfn.charfn_eval")

    def _pre_canonical_embedding(self, args, kwargs):
        self.counts["embedding_attempts"] += self._active("dilation.embedding_for_tolerance")

    def _post_canonical_embedding(self, args, kwargs, result, ns):
        self.counts["embedding_rows"] += result.basis.size

    def _post_poly_truncate(self, args, kwargs, result, ns):
        self.counts["poly_terms"] += len(result[0])

    def _post_quotient_model_check(self, args, kwargs, result, ns):
        self.qm_ns[_arg(args, kwargs, 1, "d")] += ns

    def _wrap(self, fn, name, pre=None, post=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                ns = end - start
                self.self_ns[name] += ns - frame[2]
                if stack:
                    stack[-1][2] += ns
                spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1  # a call that raises (say, UnsafeDegree) counts too
            if post is not None:
                post(args, kwargs, result, ns)
            return result

        return traced

    def _hooks(self, name: str):
        short = name.rsplit(".", 1)[-1]
        return getattr(self, f"_pre_{short}", None), getattr(self, f"_post_{short}", None)

    def install(self) -> None:
        package = [m for key, m in sys.modules.items() if key == "hardymodel" or key.startswith("hardymodel.")]
        for owner, attr, name in TRACED:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, *self._hooks(name))
            owners = [owner] + [m for m in package if m is not owner and vars(m).get(attr) is orig]
            for o in owners:
                self._undo.append((o, attr, orig))
                setattr(o, attr, wrapped)
        for cname, spec in list(checks.REGISTRY.items()):
            checks.REGISTRY[cname] = dataclasses.replace(spec, run=self._wrap(spec.run, f"checks.{cname}"))
            self._undo.append((checks.REGISTRY, cname, spec))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an untraced pass."""
        ms = lambda name: self.self_ns[name] / 1e6  # noqa: E731
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        c = self.counts
        out = {}
        for f in FUNCTIONS:
            out[f"{f}.calls"] = self.calls[f]
            out[f"{f}.self_ms"] = ms(f)
        out.update(
            {
                "linops.orthonormalize.cols_in": c["cols_in"],
                "linops.svd_flops_computed": c["svd_flops"],
                "linops.qr_flops_computed": c["qr_flops"],
                "contraction.validate_per_embedding": ratio(
                    c["validate_in_embedding"], self.calls["dilation.canonical_embedding"]
                ),
                "hardy.basis_cache.hit_ratio": ratio(c["basis_hits"], self.calls["hardy.enumerate_basis"]),
                "hardy.mult_operator.nnz_out": c["nnz_out"],
                "hardy.basis_size.max": c["basis_size_max"],
                "dilation.embedding_attempts_per_model": ratio(
                    c["embedding_attempts"], self.calls["dilation.embedding_for_tolerance"]
                ),
                "dilation.embedding_rows": c["embedding_rows"],
                "charfn.hermitian_sqrt_per_eval": ratio(c["sqrt_in_eval"], self.calls["charfn.charfn_eval"]),
                "charfn.poly_truncate.terms": c["poly_terms"],
            }
        )
        for d in QM_DEGREES:
            out[f"charfn.quotient_model_check.d{d}.ms"] = self.qm_ns[d] / 1e6
        check_ms = defaultdict(list)  # inclusive time of every check run, refusals too
        for _, _, name, start, end in self.spans:
            if name.startswith("checks."):
                check_ms[name].append((end - start) / 1e6)
        for cname in checks.REGISTRY:
            times = check_ms.get(f"checks.{cname}")
            out[f"checks.{cname}.p50_ms"] = float(np.median(times)) if times else 0.0
        out["cli.load_scenario.self_ms"] = ms("cli.load_scenario")
        out["cli.run_scenario.self_ms"] = ms("cli.run_scenario")
        out["generators.self_ms"] = ms("generators")
        return out
