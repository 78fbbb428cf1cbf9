"""Operators on tensor-product spaces: Hamiltonian assembly, spectra, ground
projectors, operator norms, and the projector-reduction gap sandwich.

Dense eigensolvers handle dimensions up to DENSE_CAP; above that one sparse
pivot-free symmetric LU of H + sigma drives shift-invert iterations with
deterministic start vectors, the gap Lanczos stopping at its residual check
in H.  Up to 2 * DENSE_CAP, a kernel too large for the first sparse block is
handed back to the dense solve, which is faster there.  Hard caps guard
against accidentally materializing astronomically large spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._tensor import (
    MATERIALIZE_CAP,
    FactoredProjectorBlock,
    SiteBlockOperator,
    embed_sum,
    matfree_norm,
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
# the shift-invert gap Lanczos: Krylov vectors kept per run, and the
# restarts from its Ritz vector before it gives up
GAP_LANCZOS_VECTORS = 40
GAP_MAX_RESTARTS = 100
SANDWICH_TOL = 1e-9


@dataclass(eq=False)
class GlobalOperator:
    """Hermitian operator on the d^len(region) space of a region."""

    region: Region
    d: int
    matrix: object  # ndarray or scipy sparse

    def __post_init__(self):
        self.region = make_region(self.region)
        dim = self.d ** len(self.region)
        if self.matrix.shape != (dim, dim):
            raise RegionError(
                f"operator dimension {self.matrix.shape} != d^|region| = {dim}"
            )

    @property
    def dim(self) -> int:
        return self.d ** len(self.region)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray() if sp.issparse(self.matrix) else np.asarray(self.matrix)


def _positions(support: Region, region: Region) -> tuple[int, ...]:
    try:
        return tuple(region.index(v) for v in support)
    except ValueError:
        raise RegionError(f"support {support} outside region") from None


def embed(term: InteractionTerm, region: Region, d: int) -> GlobalOperator:
    """Kronecker embedding of a term into a region: term on its factors, id elsewhere."""
    region = make_region(region)
    block = (term.matrix, _positions(term.support, region))
    return GlobalOperator(region, d, embed_sum([block], len(region), d))


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
    """Sum of all terms supported inside the region (reduced to projectors on request)."""
    region = make_region(region)
    if not region:
        raise RegionError("empty region")
    check_dimension(phi.d, region, cap)
    source = phi
    if projector_form:
        contained = phi.terms_within(region)
        if contained:
            source = reduce_to_projectors(
                Interaction(contained, R=phi.R, d=phi.d)
            )
    blocks = [(t.matrix, _positions(t.support, region)) for t in source.terms_within(region)]
    return GlobalOperator(region, phi.d, embed_sum(blocks, len(region), phi.d))


@dataclass
class SpectralData:
    """One region solve: the kernel and the gap of H.

    eigenvalues holds the kernel levels followed by the gap level.  basis is
    an orthonormal (dim, kernel_dim) kernel basis, sparse on the diagonal
    path; the dense path leaves it None unless the caller asked for it.
    """

    eigenvalues: np.ndarray
    kernel_dim: int
    gap: float | None
    norm: float
    kernel_tol: float
    solver: str
    basis: object = None

    @property
    def gapless_trivial(self) -> bool:
        return self.gap is None

    def kernel(self):
        """The kernel basis; EigensolverError when the kernel is empty."""
        if self.kernel_dim == 0:
            raise EigensolverError("not frustration-free: empty kernel")
        return self.basis


def spectral_data(
    H: GlobalOperator, dense_cap: int = DENSE_CAP, with_basis: bool = False
) -> SpectralData:
    """Kernel and gap of H: the region solve every other entry point reads.

    The path follows H: the diagonal shortcut when H has no off-diagonal
    entries, a dense Hermitian solve when dim <= dense_cap (eigenvectors
    only when with_basis is set), and otherwise one sparse LU of H + sigma
    that drives both a block kernel iteration and a shift-invert Lanczos
    for the gap, which stops as soon as its Ritz pair passes the residual
    check in H; the gap is the Ritz vector's Rayleigh quotient in H.  When
    dim <= 2 * dense_cap and one round of the first 16-column kernel block
    shows at least 15 kernel levels, the dense solve takes over (solver
    "dense"), so dense_cap=0 still forces the sparse path.  The kernel
    tolerance is KERNEL_REL_TOL * max(1, ||H||); the gap is the smallest
    eigenvalue above it, None when H is all kernel.  A level below minus
    the tolerance (H not positive semidefinite) raises InteractionError on
    every path.
    """
    return _region_solve(H, dense_cap, with_basis)


def _kernel_tol(norm: float) -> float:
    """Levels at or below this count as kernel: KERNEL_REL_TOL * max(1, ||H||)."""
    return KERNEL_REL_TOL * max(1.0, norm)


def _not_psd(detail: str) -> InteractionError:
    return InteractionError(
        f"Hamiltonian is not positive semidefinite ({detail}); "
        "a frustration-free Hamiltonian is a sum of PSD terms"
    )


def _from_levels(w, tol: float, norm: float, solver: str, basis=None) -> SpectralData:
    """SpectralData from ascending levels that include every kernel level."""
    if w.size and w[0] < -tol:
        raise _not_psd(f"lowest level {w[0]:.6g}")
    kernel_dim = int((w <= tol).sum())
    above = w[w > tol]
    gap = float(above[0]) if above.size else None
    # a copy, so that the full spectrum of a large diagonal H is not kept alive
    return SpectralData(w[: kernel_dim + 1].copy(), kernel_dim, gap, norm, tol, solver, basis)


def _dense_solve(mat, with_basis: bool) -> SpectralData:
    # numpy's LAPACK driver (syevd / heevd), called through scipy: after a
    # sparse solve, numpy's BLAS threads would share the cores with scipy's,
    # which spin for a while after each call
    A = mat.toarray()
    if with_basis:
        w, v = sla.eigh(A, overwrite_a=True, driver="evd")
    else:
        w, v = sla.eigh(A, eigvals_only=True, overwrite_a=True, driver="evd"), None
    norm = float(np.abs(w).max())
    tol = _kernel_tol(norm)
    return _from_levels(w, tol, norm, "dense", None if v is None else v[:, w <= tol])


def _region_solve(H: GlobalOperator, dense_cap: int, with_basis: bool) -> SpectralData:
    # the body of spectral_data; kernel_basis calls it directly, so that each
    # solve passes through exactly one public entry point
    mat = H.matrix.tocsr() if sp.issparse(H.matrix) else sp.csr_matrix(H.matrix)
    dim = H.dim
    coo = mat.tocoo()
    if not np.any(coo.data[coo.row != coo.col]):
        diag = np.real(mat.diagonal())
        norm = float(np.abs(diag).max())
        tol = _kernel_tol(norm)
        idx = np.flatnonzero(diag <= tol)
        V = sp.csc_matrix((np.ones(idx.size), (idx, np.arange(idx.size))), shape=(dim, idx.size))
        return _from_levels(np.sort(diag), tol, norm, "diagonal", V)
    if dim <= dense_cap:
        return _dense_solve(mat, with_basis)
    rng = np.random.default_rng(SOLVER_SEED)
    v0 = rng.standard_normal(dim)
    try:
        norm = float(abs(spla.eigsh(mat, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]))
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"eigensolver failed on ||H||: {exc}") from exc
    tol = _kernel_tol(norm)
    sigma = max(100.0 * tol, 1e-10)
    try:
        # H + sigma is Hermitian positive definite for a frustration-free H,
        # so diagonal pivots in a symmetric ordering are as stable as Cholesky
        lu = spla.splu(
            (mat + sigma * sp.identity(dim, format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolverError(f"eigensolver failed: factorization: {exc}") from exc
    # P (H + sigma) P^T = L D L^H with D the pivots, so by Sylvester's law of
    # inertia positive pivots prove H + sigma > 0; a row interchange means a
    # zero pivot, which a positive definite matrix cannot have
    if np.any(lu.perm_r != lu.perm_c) or np.any(lu.U.diagonal().real <= 0):
        raise _not_psd(f"H + {sigma:.3g} has a non-positive pivot")
    # up to twice the cap, a kernel that outgrows the first block is cheaper
    # to solve densely than by doubling blocks
    found = _block_kernel(mat, lu, tol, rng, handover=dim <= 2 * dense_cap)
    if found is None:
        return _dense_solve(mat, with_basis)
    V, ritz_above = found
    # on scipy's BLAS, like the other dense products of the sparse path:
    # numpy's threaded dot would leave its idle worker spinning on a core
    # through the gap Lanczos
    MV = (mat @ V).ravel()
    resid = float(sla.get_blas_funcs("nrm2", (MV,))(MV))
    if resid > 100 * tol * math.sqrt(V.shape[1]):
        raise EigensolverError(f"eigensolver failed: kernel residual {resid:.3e}")
    kernel = np.zeros(V.shape[1])
    if V.shape[1] + ritz_above.size == dim:
        # the block spans the whole space, so its Ritz values are exact
        return _from_levels(np.concatenate([kernel, ritz_above]), tol, norm, "sparse", V)

    theta, x, Hx = _gap_lanczos(mat, lu, V, v0, sigma, tol)
    if theta <= tol:
        raise EigensolverError("eigensolver failed: kernel level outside the kernel basis")
    # the gap is read from H, not from 1/mu - sigma, whose 1/sigma factor
    # amplifies round-off of the kernel basis; the Rayleigh quotient is
    # within residual^2 / separation of a level (Kato-Temple)
    gap = float(np.vdot(x, Hx).real)
    return _from_levels(np.append(kernel, gap), tol, norm, "sparse", V)


def _gap_lanczos(mat, lu, V, v0, sigma: float, tol: float):
    """Lowest excited Ritz pair (theta, x, H x) of H by Lanczos on the
    kernel-deflated (H + sigma)^-1.

    ran V is invariant under (H + sigma)^-1, so deflating each image (and
    the start vector) keeps the Krylov space in the excited subspace, where
    the top of the spectrum is mu = 1 / (gap + sigma).  The Krylov vectors
    are reorthogonalised in full, at most GAP_LANCZOS_VECTORS of them, and
    after every step the top Ritz pair of the tridiagonal gives theta =
    1/mu - sigma and the re-deflated, normalised x.  The loop stops as soon
    as ||H x - theta x|| <= tol: by Weyl, H then has a level within tol of
    theta, so the pair is checked, not trusted.  A full basis restarts from
    x, at most GAP_MAX_RESTARTS times; a vanishing beta means the Krylov
    space is invariant and its Ritz pairs exact, so no restart can help.
    Either failure raises EigensolverError.
    """
    Vf = np.asfortranarray(V)  # gemv takes Fortran order; copy once, not per call
    dim = mat.shape[0]
    m = min(GAP_LANCZOS_VECTORS, dim - Vf.shape[1])
    Q = np.empty((dim, m), dtype=np.result_type(mat.dtype, Vf.dtype), order="F")
    gemv, nrm2 = sla.get_blas_funcs(("gemv", "nrm2"), (Q,))
    alpha, beta = np.empty(m), np.empty(m)
    q = _deflate(Vf, v0)
    for _ in range(GAP_MAX_RESTARTS):
        Q[:, 0] = q / nrm2(q)
        for j in range(m):
            w = _deflate(Vf, lu.solve(Q[:, j]))
            Qj = Q[:, : j + 1]
            # classical Gram-Schmidt, twice, against every Krylov vector
            h = gemv(1.0, Qj, w, trans=2)
            w = w - gemv(1.0, Qj, h)
            h2 = gemv(1.0, Qj, w, trans=2)
            w = w - gemv(1.0, Qj, h2)
            alpha[j] = (h[j] + h2[j]).real
            beta[j] = nrm2(w)
            mus, s = sla.eigh_tridiagonal(alpha[: j + 1], beta[:j])
            mu = mus[-1]
            theta = 1.0 / mu - sigma if mu > 0 else 0.0
            x = _deflate(Vf, gemv(1.0, Qj, s[:, -1]))
            x /= nrm2(x)
            Hx = mat @ x
            resid = nrm2(Hx - theta * x)
            if resid <= tol:
                return theta, x, Hx
            if beta[j] <= np.finfo(float).eps * mu:
                raise EigensolverError(
                    f"eigensolver failed on the gap: Ritz residual {resid:.3e} "
                    f"above {tol:.3e} in an invariant Krylov space"
                )
            if j + 1 < m:
                Q[:, j + 1] = w / beta[j]
        q = x
    raise EigensolverError(
        f"eigensolver failed on the gap: Ritz residual {resid:.3e} above "
        f"{tol:.3e} after {GAP_MAX_RESTARTS} restarts"
    )


def _deflate(V, x):
    """x - V V^H x for a vector x, on scipy's BLAS, the one that SuperLU
    calls: alternating with numpy's leaves one library's idle threads
    spinning."""
    if not V.shape[1]:
        return x
    gemv = sla.get_blas_funcs("gemv", (V, x))
    return x - gemv(1.0, V, gemv(1.0, V, x, trans=2))


def _block_kernel(mat, lu, tol: float, rng, handover: bool):
    """Kernel basis of a sparse PSD matrix by shift-inverted block iteration.

    A random block survives every multiplicity (unlike single-vector
    Lanczos, which structurally sheds degenerate copies), and the
    (H + sigma)^-1 transform gives an enormous kernel/excited contrast, so
    a handful of solve-and-orthogonalize rounds converge to machine level.
    When the block is too small it doubles: the previous block is kept (it
    lies in the kernel, or already spans it) and only the appended fresh
    columns are iterated, orthogonal to it.  Returns (V, ritz_above):
    kernel basis and the Ritz values above tol seen in the final block
    (upper bounds for the lowest excited levels).  With handover set it
    returns None instead when, after the first round, fewer than two Ritz
    values of the first block lie above tol; by Cauchy interlacing the
    kernel then has at least 15 levels.
    """
    dim = mat.shape[0]
    X = np.empty((dim, 0))
    k = 16
    while True:
        k = min(k, dim)
        m = X.shape[1]
        Y = rng.standard_normal((dim, k - m))
        if np.iscomplexobj(mat.data):
            Y = Y + 1j * rng.standard_normal((dim, k - m))
        for r in range(4):
            # the trailing columns of Q are orthonormal and orthogonal to X;
            # scipy's QR shares the BLAS that SuperLU calls, where alternating
            # with numpy's BLAS leaves one library's idle threads spinning
            Y = sla.qr(np.hstack([X, lu.solve(Y)]), mode="economic", overwrite_a=True)[0][:, m:]
            if handover and not m and not r and (_ritz(mat, Y, tol)[0] > tol).sum() < 2:
                return None
        X = np.hstack([X, Y])
        w, u = _ritz(mat, X, tol)
        keep = w <= tol
        if (~keep).sum() >= 2 or k == dim:
            return sla.get_blas_funcs("gemm", (X, u))(1.0, X, u[:, keep]), w[~keep]
        if k >= MAX_KERNEL:
            raise EigensolverError(f"kernel larger than {MAX_KERNEL}")
        k *= 2


def _ritz(mat, X, tol: float):
    """Ritz values and vectors of mat on the orthonormal block X; a Ritz
    value below -tol is a level in (-sigma, -tol), too shallow for the
    pivots to see.  Products on scipy's BLAS, like the QR around them."""
    MX = mat @ X
    T = sla.get_blas_funcs("gemm", (X, MX))(1.0, X, MX, trans_a=2)
    w, u = np.linalg.eigh((T + T.conj().T) / 2.0)
    if w[0] < -tol:
        raise _not_psd(f"Ritz value {w[0]:.6g}")
    return w, u


def kernel_basis(H: GlobalOperator, dense_cap: int = DENSE_CAP):
    """Orthonormal basis of the kernel (ground space) as a (dim, r) array.

    The basis of the region solve (see spectral_data); sparse one-hot for
    diagonal H.  Raises EigensolverError when the kernel is empty.
    """
    return _region_solve(H, dense_cap, with_basis=True).kernel()


def ground_projector(H: GlobalOperator, dense_cap: int = DENSE_CAP) -> GlobalOperator:
    """Orthogonal projector onto the kernel of a frustration-free operator.

    Materializes the dense projector, so it is gated at
    _tensor.MATERIALIZE_CAP; use kernel_basis directly for factored
    large-dimension work.
    """
    if H.dim > MATERIALIZE_CAP:
        raise DimensionCapError(
            f"region too large for an explicit projector (dim {H.dim} > {MATERIALIZE_CAP})"
        )
    V = kernel_basis(H, dense_cap=dense_cap)
    if sp.issparse(V):
        V = V.toarray()
    return GlobalOperator(H.region, H.d, V @ V.conj().T)


def check_frustration_free(H: GlobalOperator, dense_cap: int = DENSE_CAP) -> bool:
    """True iff the smallest eigenvalue sits at zero (within tolerance)."""
    return spectral_data(H, dense_cap=dense_cap).kernel_dim > 0


def operator_norm(M, hermitian: bool = False) -> float:
    """Largest singular value of a GlobalOperator, array, sparse matrix, or
    matvec-capable object."""
    if isinstance(M, GlobalOperator):
        M = M.matrix
    if sp.issparse(M):
        if M.shape[0] <= DENSE_CAP:
            M = M.toarray()
        else:
            return matfree_norm(spla.aslinearoperator(M))
    if isinstance(M, np.ndarray):
        if hermitian:
            w = np.linalg.eigvalsh(M)
            return float(abs(w).max()) if w.size else 0.0
        return float(np.linalg.norm(M, 2))
    return matfree_norm(M)


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


def sandwich_check(phi: Interaction, region: Region, dense_cap: int = DENSE_CAP) -> SandwichReport:
    """Verify phi_min * gap(projected H) <= gap(H) <= phi_max * gap(projected H)."""
    pmax, pmin = phi_bounds(Interaction(phi.terms_within(region), R=phi.R, d=phi.d))
    raw = spectral_data(hamiltonian(phi, region), dense_cap=dense_cap)
    projected = spectral_data(
        hamiltonian(phi, region, projector_form=True), dense_cap=dense_cap
    )
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


def dump_operator(H: GlobalOperator) -> str:
    """Debug dump: dimension line, then one '(row, col, re, im)' per nonzero."""
    mat = H.matrix.tocoo() if sp.issparse(H.matrix) else sp.coo_matrix(H.matrix)
    lines = [f"dim {H.dim}"]
    order = np.lexsort((mat.col, mat.row))
    for idx in order:
        z = complex(mat.data[idx])
        lines.append(
            f"{mat.row[idx]} {mat.col[idx]} {z.real:.17g} {z.imag:.17g}"
        )
    return "\n".join(lines) + "\n"


def embedded_kernel_projector(
    phi: Interaction,
    sub_region: Region,
    region: Region,
    d: int,
    dense_cap: int = DENSE_CAP,
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
    V = kernel_basis(Hs, dense_cap=dense_cap)
    return FactoredProjectorBlock(V, _positions(sub_region, region), len(region), d)
