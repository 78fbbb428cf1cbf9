"""Operators on tensor-product spaces: Hamiltonian assembly, the region
solve (kernel and gap), embedded kernel projectors, and the
projector-reduction gap sandwich.

Dense eigensolvers handle dimensions up to DENSE_CAP; above it the kernel is
grown site by site from the terms and the gap found by one Lanczos run on H
deflated against it (_tensor.lanczos, as every matrix-free norm): its Ritz
pair is checked by its residual.  Hard caps guard against materializing
huge spaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._tensor import (
    FactoredProjectorBlock,
    SiteBlockOperator,
    diagonal_sum,
    embed_sum,
    lanczos,
    zero_off_diagonal,
)
from .errors import DimensionCapError, EigensolverError, InteractionError, RegionError
from .interaction import Interaction, InteractionTerm, phi_bounds, reduce_to_projectors
from .lattice import Region, make_region

DENSE_CAP = 512
SPARSE_CAP = 2 ** 24
KERNEL_REL_TOL = 1e-9
MAX_KERNEL = 512
# start vectors of the sparse region solve
SOLVER_SEED = 1234
SANDWICH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GlobalOperator:
    """Hermitian operator on the d^len(region) space of a region, the sum of
    its InteractionTerms, each the identity off its support.

    The terms' factor positions are worked out once, when it is made, into
    blocks, the (matrix, positions) pairs of _tensor; a support outside the
    region is a RegionError, and a matrix not d^len(support) square an
    InteractionError.  Its matrix is the canonical CSR of their
    embedded sum (embed_sum), built on first read: the region solve reads
    the terms, and a diagonal H is solved from them and never assembled.
    Frozen, and the terms kept as a tuple, so the matrix cannot drift from
    the terms.
    """

    region: Region
    d: int
    terms: tuple[InteractionTerm, ...]
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        region = make_region(self.region)
        terms = tuple(self.terms)
        for term in terms:
            term.check_shape(self.d)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "blocks", tuple((t.matrix, _positions(t.support, region)) for t in terms))

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The CSR of the terms, built on first read."""
        return embed_sum(self.blocks, len(self.region), self.d)

    @property
    def dim(self) -> int:
        return self.d ** len(self.region)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _positions(support: Region, region: Region) -> tuple[int, ...]:
    try:
        return tuple(region.index(v) for v in support)
    except ValueError:
        raise RegionError(f"support {support} outside region") from None


def embed(term: InteractionTerm, region: Region, d: int) -> GlobalOperator:
    """Kronecker embedding of a term into a region: term on its factors, id elsewhere."""
    return GlobalOperator(region, d, [term])


def check_dimension(d: int, region, cap: int = SPARSE_CAP) -> int:
    n_sites = len(region)
    dim = d ** n_sites
    if dim > cap:
        raise DimensionCapError(
            f"region too large: d^{n_sites} = {dim} exceeds cap {cap}"
        )
    return dim


def hamiltonian(
    phi: Interaction,
    region: Region,
    projector_form: bool = False,
    cap: int = SPARSE_CAP,
) -> GlobalOperator:
    """Sum of all terms supported inside the region (reduced to projectors on request).

    The operator keeps the terms; its CSR matrix is assembled only when read
    (see GlobalOperator), which the solve of a diagonal H never does.
    """
    region = make_region(region)
    if not region:
        raise RegionError("empty region")
    check_dimension(phi.d, region, cap)
    source = phi.within(region)
    if projector_form and source.terms:
        source = reduce_to_projectors(source)
    return GlobalOperator(region, phi.d, source.terms)


@dataclass
class SpectralData:
    """One region solve: the kernel and the gap of H.

    The kernel is the levels at or below KERNEL_REL_TOL * max(1, norm), with
    norm ||H|| on the dense and diagonal paths and the sum of the term norms,
    an upper bound on ||H||, on the sparse path.  basis is an orthonormal
    (dim, kernel_dim) kernel basis, sparse on the diagonal path; the dense
    path leaves it None unless the caller asked for it.  A sparse gap is a
    Ritz value with a residual in H at most the tolerance: it proves a level
    that close, not that no lower excited level was missed, which only the
    dense solve rules out.
    """

    kernel_dim: int
    gap: float | None
    solver: str
    basis: object = None

    @property
    def gapless_trivial(self) -> bool:
        return self.gap is None

    def kernel(self):
        """The kernel basis; InteractionError when the kernel is empty, as
        an input that is not frustration-free."""
        if self.kernel_dim == 0:
            raise InteractionError("not frustration-free: empty kernel")
        return self.basis


def spectral_data(H: GlobalOperator, with_basis: bool = False) -> SpectralData:
    """Kernel and gap of H: the region solve every other entry point reads.

    The solver follows from H alone: the diagonal shortcut when every term
    block is diagonal, read from the sum of the terms' diagonals without
    assembling H; a dense solve when dim <= DENSE_CAP (eigenvectors only
    with with_basis); otherwise the kernel grown
    from the terms (_grown_kernel) and the gap by Lanczos on H deflated
    against it (_tensor.lanczos).  A grown kernel wider than MAX_KERNEL goes
    to the dense solve when dim <= 2 * DENSE_CAP and raises EigensolverError
    otherwise.  The gap is the lowest level above the kernel tolerance (see
    SpectralData), None when H is all kernel.  A term with a level below
    -PSD_TOL * max(1, ||term||), or on the dense and diagonal paths a level
    of H below minus the tolerance, raises InteractionError.
    """
    return _region_solve(H, with_basis)


def _kernel_tol(norm: float) -> float:
    """Levels at or below this count as kernel: KERNEL_REL_TOL * max(1, norm)."""
    return KERNEL_REL_TOL * max(1.0, norm)


def _not_psd(detail: str) -> InteractionError:
    return InteractionError(
        f"Hamiltonian is not positive semidefinite ({detail}); "
        "a frustration-free Hamiltonian is a sum of PSD terms"
    )


def _from_levels(w, tol: float, solver: str, basis=None) -> SpectralData:
    """SpectralData from levels, in any order, that include every kernel level."""
    if w.size and w.min() < -tol:
        raise _not_psd(f"lowest level {w.min():.6g}")
    above = w > tol
    excited = np.count_nonzero(above)
    gap = float(w.min(where=above, initial=np.inf)) if excited else None
    return SpectralData(w.size - excited, gap, solver, basis)


def _diagonal_solve(diag) -> SpectralData:
    """The levels are the diagonal; the kernel basis is one-hot (sparse)."""
    diag = np.real(diag)
    tol = _kernel_tol(max(float(diag.max()), -float(diag.min())))
    idx = np.flatnonzero(diag <= tol)
    V = sp.csc_matrix(
        (np.ones(idx.size), idx, np.arange(idx.size + 1)), shape=(diag.size, idx.size)
    )
    return _from_levels(diag, tol, "diagonal", V)


def _dense_solve(mat, with_basis: bool) -> SpectralData:
    # numpy's LAPACK driver (syevd / heevd), called through scipy: after a
    # sparse solve, numpy's BLAS threads would share the cores with scipy's,
    # which spin for a while after each call
    A = mat.toarray()
    if with_basis:
        w, v = sla.eigh(A, overwrite_a=True, driver="evd")
    else:
        w, v = sla.eigh(A, eigvals_only=True, overwrite_a=True, driver="evd"), None
    tol = _kernel_tol(float(np.abs(w).max()))
    return _from_levels(w, tol, "dense", None if v is None else v[:, w <= tol])


def _region_solve(H: GlobalOperator, with_basis: bool) -> SpectralData:
    # the body of spectral_data; kernel_basis calls it directly, so that each
    # solve passes through exactly one public entry point.  DENSE_CAP is read
    # at call time, so that tests can move the crossover by patching it
    for term, (_, positions) in zip(H.terms, H.blocks):
        # only for PSD terms is ker H the intersection of the terms' kernels
        if not term.is_psd:
            raise _not_psd(f"term on factors {positions}: level {term.spectrum[0][0]:.6g}")
    dim = H.dim
    if all(zero_off_diagonal(block) for block, _ in H.blocks):
        return _diagonal_solve(diagonal_sum(H.blocks, len(H.region), H.d).reshape(-1))
    mat = H.matrix
    if dim <= DENSE_CAP:
        return _dense_solve(mat, with_basis)
    bound = float(sum(t.norm for t in H.terms))
    tol = _kernel_tol(bound)
    V = _grown_kernel(H, mat, tol)
    if V is None:
        if dim <= 2 * DENSE_CAP:
            return _dense_solve(mat, with_basis)
        raise EigensolverError(f"eigensolver failed: kernel larger than {MAX_KERNEL}")
    if V.shape[1] == dim:  # every level within the tolerance
        return SpectralData(dim, None, "sparse", V)
    # the terms are PSD (checked above) and sum to mat, so H is PSD, its lowest
    # level on ran(V)^perp is the gap, and the sum of their norms bounds ||H||
    Vf = np.asfortranarray(V)  # gemv takes Fortran order; copy once, not per call
    gemv = sla.get_blas_funcs("gemv", dtype=np.result_type(mat.dtype, Vf.dtype))

    def deflate(x):  # x - V V^H x, on scipy's BLAS as every product of the run
        return x - gemv(1.0, Vf, gemv(1.0, Vf, x, trans=2)) if Vf.shape[1] else x

    v0 = np.random.default_rng(SOLVER_SEED).standard_normal(dim)
    gap, _ = lanczos(mat.dot, v0, lambda _: tol, bound, deflate, subject="the gap")
    if gap <= tol:
        raise EigensolverError("eigensolver failed: kernel level outside the kernel basis")
    return SpectralData(V.shape[1], float(gap), "sparse", V)


def _grown_kernel(H: GlobalOperator, mat, tol: float):
    """Orthonormal basis of ker H grown from its terms, as a Fortran-ordered
    (dim, r) array; None once it is wider than MAX_KERNEL.

    For PSD terms ker H is the intersection of the terms' kernels, which
    Bravyi's quantum 2-SAT algorithm builds site by site: V starts as C^d,
    each further factor takes V (x) 1_d, and the terms whose last factor it
    is are imposed there, keeping the eigenvectors of the sum of their
    V^H h V at or below tol.  One Rayleigh-Ritz step of H (mat) on V ends
    it: levels above tol leave the kernel, and the rest must pass ||H V||
    <= 100 tol sqrt(r).  Every product is on scipy's BLAS, as in the gap
    Lanczos; V.T is C-ordered, so none of them copies V.
    """
    n, d, dtype = len(H.region), H.d, mat.dtype
    arriving = [[] for _ in range(n)]
    for block, positions in H.blocks:
        arriving[max(positions, default=0)].append((np.asarray(block, dtype=dtype), positions))
    gemm, nrm2 = sla.get_blas_funcs(("gemm", "nrm2"), dtype=dtype)
    V = np.eye(d, dtype=dtype, order="F")
    for k in range(n):
        if k:
            # V (x) 1_d: d strided copies of V into a zeroed (r, d, rows, d)
            # array, whose C-ordered (r d, rows d) reshape is the transpose
            r, rows = V.shape[1], V.shape[0]
            W = np.zeros((r, d, rows, d), dtype=dtype)
            for a in range(d):
                W[:, a, :, a] = V.T
            V = W.reshape(r * d, rows * d).T
        if arriving[k] and V.shape[1]:
            G = sum(_local_gram(gemm, V, h, positions, k + 1, d) for h, positions in arriving[k])
            w, u = sla.eigh(G, overwrite_a=True)
            V = gemm(1.0, V, u[:, w <= tol])
        if V.shape[1] > MAX_KERNEL:
            return None
    MV = mat @ V
    w, u = sla.eigh(gemm(1.0, V, MV, trans_a=2), overwrite_a=True)
    V, MV = gemm(1.0, V, u[:, w <= tol]), gemm(1.0, MV, u[:, w <= tol]).ravel(order="K")
    resid = float(nrm2(MV)) if MV.size else 0.0
    if resid > 100 * tol * math.sqrt(V.shape[1]):
        raise EigensolverError(f"eigensolver failed: kernel residual {resid:.3e}")
    return V


def _local_gram(gemm, V, h, positions, n: int, d: int):
    """V^H h V for h on the given factors of the first n, by one apply of h
    to the columns of V as rows, with h's factors moved last."""
    r, m = V.shape[1], len(positions)
    axes = [1 + p for p in positions]
    X = np.moveaxis(V.T.reshape((r,) + (d,) * n), axes, range(n + 1 - m, n + 1)).reshape(-1, d ** m)
    hX = gemm(1.0, h, X.T).T  # the rows h x, C-ordered
    return gemm(1.0, X.reshape(r, -1).T, hX.reshape(r, -1).T, trans_a=2)


def kernel_basis(H: GlobalOperator):
    """Orthonormal basis of the kernel (ground space) as a (dim, r) array.

    The basis of the region solve (see spectral_data); sparse one-hot for
    diagonal H.  Raises InteractionError when the kernel is empty.
    """
    return _region_solve(H, with_basis=True).kernel()


def check_frustration_free(H: GlobalOperator) -> bool:
    """True iff the smallest eigenvalue sits at zero (within tolerance)."""
    return spectral_data(H).kernel_dim > 0


@dataclass
class SandwichReport:
    """Both inequalities of the projector-reduction gap sandwich."""

    gap_raw: float | None
    gap_projected: float | None
    phi_max: float
    phi_min: float
    lower_ok: bool
    upper_ok: bool
    slack_lower: float
    slack_upper: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def sandwich_check(phi: Interaction, region: Region) -> SandwichReport:
    """Verify phi_min * gap(projected H) <= gap(H) <= phi_max * gap(projected H)."""
    pmax, pmin = phi_bounds(phi.within(region))
    raw = spectral_data(hamiltonian(phi, region))
    projected = spectral_data(hamiltonian(phi, region, projector_form=True))
    if raw.gap is None or projected.gap is None:
        return SandwichReport(raw.gap, projected.gap, pmax, pmin, True, True, 0.0, 0.0)
    slack_lower = raw.gap - pmin * projected.gap
    slack_upper = pmax * projected.gap - raw.gap
    return SandwichReport(
        raw.gap,
        projected.gap,
        pmax,
        pmin,
        bool(slack_lower >= -SANDWICH_TOL),
        bool(slack_upper >= -SANDWICH_TOL),
        float(slack_lower),
        float(slack_upper),
    )


def embedded_block(
    block: np.ndarray, support: Region, region: Region, d: int
) -> SiteBlockOperator:
    """Matrix-free embedding used by the detectability machinery."""
    return SiteBlockOperator(block, _positions(support, region), len(region), d)


def embedded_kernel_projector(
    phi: Interaction, sub_region: Region, region: Region, d: int
) -> FactoredProjectorBlock:
    """Ground projector of the sub-region Hamiltonian, acting on the full region.

    Kept in factored (kernel-basis) form; the identity is implicit on the
    sites outside the sub-region.  A sub-region with no contained terms has
    the identity as its ground projector (empty-positions block).
    """
    sub_region = make_region(sub_region)
    region = make_region(region)
    if not phi.terms_within(sub_region):
        return FactoredProjectorBlock(np.ones((1, 1)), (), len(region), d)
    Hs = hamiltonian(phi, sub_region, projector_form=True)
    V = kernel_basis(Hs)
    return FactoredProjectorBlock(V, _positions(sub_region, region), len(region), d)
