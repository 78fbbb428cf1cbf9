"""Spans around gapcert's layer functions, for the traced benchmark run.

``install`` replaces each function listed in SPANNED by a wrapper in every
gapcert module that binds its name (cli, certification and detectability
import several of them by name), and counts ``OperatorChain`` applies.  Spans
stay in memory until the pass ends; ``layer_metrics`` turns them into self
times, call counts and the per-layer counters the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
from collections import defaultdict

SPANNED = {
    "operators": ("hamiltonian", "spectral_data", "kernel_basis", "embedded_kernel_projector"),
    "_tensor": ("matfree_norm",),
    "detectability": (
        "column_decomposition", "check_commuting", "layer_product",
        "standard_dl_check", "smuggle_check", "overlap_bound_check",
    ),
    "certification": ("measure_delta_k", "pair_overlap_norm"),
    "lattice": ("enumerate_windows", "split_pairs"),
    "interaction": ("reduce_to_projectors", "phi_bounds", "commutation_degree"),
}
LAYER_NAME = {"_tensor": "tensor"}
SOLVES = ("operators.spectral_data", "operators.kernel_basis")
COUNTERS = (
    "operators.hamiltonian.nnz", "operators.spectral_data.dense", "operators.spectral_data.sparse",
    "operators.spectral_data.diagonal", "operators.kernel_basis.rank", "operators.max_dim",
    "operators.repeat_solves", "tensor.chain_applies", "tensor.factor_applies", "tensor.apply_bytes",
    "detectability.columns", "certification.windows_tested", "certification.windows_skipped",
    "lattice.windows", "lattice.pairs",
)


def payload_key(H) -> tuple:
    """Region plus a digest of the canonical sparse matrix: equal keys, same solve."""
    m = H.matrix.tocsr(copy=True)
    m.sum_duplicates()
    digest = hashlib.blake2b(digest_size=16)
    for part in (m.data, m.indices, m.indptr):
        digest.update(part.tobytes())
    return (tuple(H.region), H.d, str(m.dtype), digest.hexdigest())


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus per-pass counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.solved: set = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.solved = set()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in SOLVES:
                key = payload_key(args[0] if args else kwargs["H"])
                self.counts["operators.repeat_solves"] += key in self.solved
                self.solved.add(key)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, args or (kwargs.get("H"),), result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name == "operators.hamiltonian":
            c["operators.hamiltonian.nnz"] += result.matrix.nnz
            c["operators.max_dim"] = max(c["operators.max_dim"], result.dim)
        elif name == "operators.spectral_data":
            c[f"operators.spectral_data.{result.solver}"] += 1
            c["operators.max_dim"] = max(c["operators.max_dim"], args[0].dim)
        elif name == "operators.kernel_basis":
            c["operators.kernel_basis.rank"] += result.shape[1]
            c["operators.max_dim"] = max(c["operators.max_dim"], args[0].dim)
        elif name == "detectability.column_decomposition":
            c["detectability.columns"] += len(result.columns)
        elif name == "certification.measure_delta_k":
            c["certification.windows_tested"] += result.regions_tested
            c["certification.windows_skipped"] += result.skipped_regions
        elif name == "lattice.enumerate_windows":
            c["lattice.windows"] += len(result)
        elif name == "lattice.split_pairs":
            c["lattice.pairs"] += len(result)

    def count_applies(self, method):
        @functools.wraps(method)
        def counted(chain, x):
            y = method(chain, x)
            factors = len(chain.factors)
            self.counts["tensor.chain_applies"] += 1
            self.counts["tensor.factor_applies"] += factors
            # computed, not measured: each factor reads and writes one vector
            self.counts["tensor.apply_bytes"] += factors * (x.nbytes + y.nbytes)
            return y

        return counted


def install(tracer: Tracer) -> None:
    """Wrap every SPANNED function wherever a gapcert module binds it."""
    from gapcert._tensor import OperatorChain

    wrapped = []
    for module_name, names in SPANNED.items():
        module = sys.modules[f"gapcert.{module_name}"]
        layer = LAYER_NAME.get(module_name, module_name)
        wrapped += [(getattr(module, n), tracer.wrap(f"{layer}.{n}", getattr(module, n))) for n in names]
    modules = [m for name, m in sys.modules.items() if name == "gapcert" or name.startswith("gapcert.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, replacement in wrapped:
                if value is original:
                    setattr(module, attr, replacement)
    OperatorChain.matvec = tracer.count_applies(OperatorChain.matvec)
    OperatorChain.rmatvec = tracer.count_applies(OperatorChain.rmatvec)


def layer_metrics(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Self time (span minus child spans) and call count per name, plus counters.

    cli.other.s is the part of the ops' wall time that no span covers.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(COUNTERS, 0.0)
    for module_name, names in SPANNED.items():
        layer = LAYER_NAME.get(module_name, module_name)
        out.update({f"{layer}.{n}.{kind}": 0.0 for n in names for kind in ("s", "calls")})
    for (name, start, end, parent, _), inner in zip(spans, child_time):
        out[f"{name}.s"] += end - start - inner
        out[f"{name}.calls"] += 1
    out.update(tracer.counts)
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    out["cli.other.s"] = sum(op_walls) - roots
    out["min_self_s"] = min((end - start - inner for (_, start, end, _, _), inner in zip(spans, child_time)), default=0.0)
    solves = out["operators.spectral_data.calls"] + out["operators.kernel_basis.calls"]
    out["operators.repeat_solve_frac"] = out["operators.repeat_solves"] / solves if solves else 0.0
    windows = out["certification.windows_tested"] + out["certification.windows_skipped"]
    out["certification.window_yield"] = out["certification.windows_tested"] / windows if windows else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over traced passes (a name missing from a pass counts as 0)."""
    names = set().union(*per_pass)
    return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
