"""Tensor-factor bookkeeping for operators on d^n dimensional product spaces.

Sites of a region are tensor factors in ascending vertex-id order; basis
index of a product state is sum_i digit_i * d**(n-1-i) (first site most
significant).  A diagonal leaf is one broadcast multiply on the (d,)*n
view of the vector.  A matrix leaf on one contiguous run of factors
p..p+m-1 applies on the (d^p, d^m, d^rest) reshape view, with no transpose
or copy; on other positions it moves its factors to the front and back.
Every diagonal operator also gives its diagonal by slabs of rows
(diagonal_slab), from which matfree_norm reads its norm with no apply; any
other norm is one lanczos run, the gap's too, stopped at the rounding level
of the operator's bound, an upper bound on its norm that each class carries.
Everything here is dtype-preserving: real inputs stay real.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla  # after scipy.sparse: the other order imports gapcert ~40 ms slower

from .errors import DimensionCapError, EigensolverError


# start vector of the Lanczos norm; it steers convergence, not the converged value
DEFAULT_NORM_SEED = 7
NORM_TOL = 1e-10
# a Lanczos run (gap and norms): the steps before it gives up, and the steps
# between Ritz reads, which are also the columns of each block of Krylov vectors
LANCZOS_MAX_STEPS = 1000
LANCZOS_CHECK_STEPS = 8
# largest product-space dimension that OperatorChain.to_dense materializes;
# also the most entries of one fused diagonal run in OperatorChain's apply
# plan, and of one slab of a diagonal norm (matfree_norm)
MATERIALIZE_CAP = 4096


def _front(x: np.ndarray, positions: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """x with the given factors moved to the front, as a (d^m, d^(n-m)) matrix."""
    m = len(positions)
    xt = np.moveaxis(x.reshape((d,) * n), positions, range(m))
    return np.ascontiguousarray(xt).reshape(d ** m, -1)


def _unfront(y: np.ndarray, positions: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Inverse of _front: the leading factors moved back to their positions."""
    m = len(positions)
    yt = np.moveaxis(y.reshape((d,) * n), range(m), positions)
    return np.ascontiguousarray(yt).reshape(-1)


def _one_hot_columns(V) -> bool:
    """True when every column of V has at most one stored entry (no tolerance)."""
    counts = np.diff(sp.csc_matrix(V).indptr) if sp.issparse(V) else np.count_nonzero(V, axis=0)
    return bool(np.all(counts <= 1))


def zero_off_diagonal(block) -> bool:
    """True when the block has exact zeros off its diagonal (no tolerance)."""
    return np.count_nonzero(block) == np.count_nonzero(np.diagonal(block))


def _offsets(positions: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Basis index of each local basis state of the given factors, digits elsewhere 0."""
    out = np.zeros(1, dtype=np.int64)
    for p in positions:
        out = (out[:, None] + np.arange(d) * d ** (n - 1 - p)).ravel()
    return out


def _diagonal_csr(diag: np.ndarray) -> sp.csr_matrix:
    """diag(diag) in CSR, built from its nonzero entries with no index sort."""
    idx = np.flatnonzero(diag)
    indptr = np.zeros(diag.size + 1, dtype=idx.dtype)
    np.cumsum(diag != 0, out=indptr[1:])
    return sp.csr_matrix((diag[idx], idx, indptr), shape=(diag.size, diag.size))


def _placed(diag: np.ndarray, positions, n: int, d: int) -> np.ndarray:
    """diag reshaped to d on the given factor positions and 1 elsewhere."""
    shape = [1] * n
    for p in positions:
        shape[p] = d
    return np.asarray(diag).reshape(shape)


def diagonal_sum(blocks, n: int, d: int) -> np.ndarray:
    """Sum of the diagonals of blocks, each added by broadcast on its factor
    positions, as one (d,)*n array (blocks as in embed_sum).  Its dtype is
    float64, or complex128 when a block is complex."""
    dtype = np.result_type(np.float64, *(np.asarray(b).dtype for b, _ in blocks))
    diag = np.zeros((d,) * n, dtype=dtype)
    for block, positions in blocks:
        diag += _placed(np.diagonal(block), positions, n, d)
    return diag


def embed_sum(blocks, n: int, d: int) -> sp.csr_matrix:
    """Sum of blocks, each acting on its factor positions and identity elsewhere (CSR).

    blocks is a list of (block, positions) with block d^m x d^m in the
    factors' own order.  The diagonal is diagonal_sum(blocks); an
    off-diagonal entry (r, c) of a block lands on the rows offset(r) +
    offset(rest) and columns offset(c) + offset(rest), where offset sums the
    digits times the place values of their factors.  The CSR matrix is built
    once and holds no explicit zeros; its dtype is that of the diagonal.
    """
    diag = diagonal_sum(blocks, n, d)
    rows, cols, vals = [], [], []
    for block, positions in blocks:
        block = np.asarray(block)
        r, c = np.nonzero(block)
        r, c = r[r != c], c[r != c]
        if r.size:
            local = _offsets(positions, n, d)
            rest = _offsets(tuple(p for p in range(n) if p not in positions), n, d)
            rows.append((local[r, None] + rest).ravel())
            cols.append((local[c, None] + rest).ravel())
            vals.append(np.repeat(block[r, c], rest.size))
    H = _diagonal_csr(diag.reshape(-1))
    if rows:
        off = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=H.shape, dtype=diag.dtype,
        )
        # off-diagonal entries never meet the diagonal; the sum drops cancelled ones
        H = H + off
    return H


class _SiteLeaf:
    """What the operators on the factors at self.positions share.

    _place, run once per leaf, checks the positions and fixes how x is
    viewed.  A diagonal multiplies x viewed as (d,)*n by broadcast, on any
    positions.  A matrix on one contiguous run p..p+m-1 views x as
    (d^p, d^m, d^rest), with the run as the middle axis; on any other
    positions (2D-grid bonds and columns) it goes through _front/_unfront.
    """

    def _place(self, diag: np.ndarray | None) -> None:
        self.positions = tuple(self.positions)
        n, d, m = self.n, self.d, len(self.positions)
        p = self.positions[0] if self.positions else 0
        if any(not 0 <= q < n for q in self.positions):
            raise ValueError(f"positions must lie in [0, {n})")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be strictly increasing")
        run = self.positions == tuple(range(p, p + m))
        self._view = (d ** p, d ** m, d ** (n - p - m)) if run else None
        self._diag = diag
        if diag is not None:
            self._dg = _placed(diag, self.positions, n, d)
            self._slab_layouts, self._last_slab = {}, (None, None)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d ** self.n, self.d ** self.n)

    @property
    def diagonal(self) -> bool:
        """Applied as a broadcast multiply by a diagonal (see the subclasses)."""
        return self._diag is not None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return (x.reshape((self.d,) * self.n) * self._dg).reshape(-1)
        return self._apply(self._mats, x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the conjugate transpose."""
        if self._diag is not None:
            return (x.reshape((self.d,) * self.n) * self._dg.conj()).reshape(-1)
        return self._apply(self._rmats, x)

    def diagonal_slab(self, start: int, stop: int) -> np.ndarray:
        """Diagonal entries start..stop-1 (see matfree_norm), cut from the d^k
        rows whose leading digits are fixed that hold them, for the smallest
        k with stop - start dividing d^k.  Read-only: the slab of the last
        leading digits is kept, and reused while they do not change."""
        d = self.d
        if stop - start not in self._slab_layouts:
            self._slab_layouts[stop - start] = self._slab_layout(stop - start)
        k, places, table, ones = self._slab_layouts[stop - start]
        base = start - start % d ** k
        digits = tuple(base // p % d for p in places)
        if self._last_slab[0] != (k, digits):
            slab = (table[digits] * ones).reshape(-1)
            slab.flags.writeable = False
            self._last_slab = ((k, digits), slab)
        return self._last_slab[1][start - base: stop - base]

    def _slab_layout(self, size: int):
        """k; the place values of the positions among the leading n - k
        digits; the diagonal indexed by those digits, its trailing axes
        merged into runs of placed and of broadcast ones; and the ones that
        spread it over the d^k rows."""
        n, d = self.n, self.d
        k = next(k for k in range(n + 1) if d ** k % size == 0)
        lead = [q for q in self.positions if q < n - k]
        runs = [(s, len(list(g))) for s, g in itertools.groupby(self._dg.shape[n - k:])]
        table = self._dg.reshape((d,) * len(lead) + tuple(s ** c for s, c in runs))
        ones = np.ones(tuple(d ** c for _, c in runs))
        return k, [d ** (n - 1 - q) for q in lead], table, ones

    def _apply(self, mats, x: np.ndarray) -> np.ndarray:
        """mats[-1] @ ... @ mats[0] on the positions, identity elsewhere.

        On a run, one matmul per matrix on the view, with no transpose and no
        copy; a run that ends at the last factor takes x as a (d^p, d^m)
        matrix times the transpose instead, where the batched matmul is
        about 3x slower.
        """
        if self._view is None:
            y = _front(x, self.positions, self.n, self.d)
            for mat in mats:
                y = mat @ y
            return _unfront(y, self.positions, self.n, self.d)
        a, m, rest = self._view
        if rest == 1:
            y = x.reshape(a, m)
            for mat in mats:
                y = y @ mat.T
        else:
            y = x.reshape(a, m, rest)
            for mat in mats:
                y = np.matmul(mat, y)
        return y.reshape(-1)

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()


@dataclass(eq=False)
class SiteBlockOperator(_SiteLeaf):
    """A small matrix acting on selected tensor factors of a d^n space.

    The positions must strictly increase within [0, n).  The block applies
    as one matmul on its factors (see _SiteLeaf), never as the d^n x d^n
    matrix, so products of many of these stay cheap.  A block with exact
    zeros off its diagonal is applied as a broadcast multiply.
    """

    block: np.ndarray
    positions: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        m = len(self.positions)
        if self.block.shape != (self.d ** m, self.d ** m):
            raise ValueError("block dimension does not match positions")
        diagonal = zero_off_diagonal(self.block)
        self._place(np.diagonal(self.block).copy() if diagonal else None)
        self._mats, self._rmats = (self.block,), (self.block.conj().T,)
        self.bound = float(np.linalg.norm(self.block, 2))  # the norm itself

    def to_sparse(self) -> sp.csr_matrix:
        return embed_sum([(self.block, self.positions)], self.n, self.d)


@dataclass(eq=False)
class FactoredProjectorBlock(_SiteLeaf):
    """V V^dag acting on selected tensor factors, kept in factored form, or
    its complement 1 - V V^dag with complement.

    For kernel projectors of large sub-regions the rank is tiny compared to
    the block dimension, so applying two skinny matmuls (placed as in
    _SiteLeaf) beats storing the d^m x d^m projector.  The positions must
    strictly increase within [0, n); all n of them give the projector on the
    whole space.  The basis may be dense or sparse (one-hot kernel bases of
    diagonal Hamiltonians stay sparse).  A basis with at most one stored
    entry per column makes V V^dag diagonal, applied as a broadcast multiply
    by |v|^2 (1 - |v|^2 for the complement); any other sparse basis is
    applied densely.
    """

    basis: object  # (d^m, r) ndarray or sparse, orthonormal columns
    positions: tuple[int, ...]
    n: int
    d: int
    complement: bool = False
    bound = 1.0  # a projector, or its complement

    def __post_init__(self):
        if self.basis.shape[0] != self.d ** len(self.positions):
            raise ValueError("basis rows do not match positions")
        V = self.basis
        if _one_hot_columns(V):
            # |v|^2 as a real number, with no complex rounding residue
            abs2 = abs(V).power(2) if sp.issparse(V) else np.abs(V) ** 2
            abs2 = np.asarray(abs2.sum(axis=1)).reshape(-1)
            self._place(1 - abs2 if self.complement else abs2)
        else:
            self._place(None)
            V = V.toarray() if sp.issparse(V) else V
            self._mats = self._rmats = (V.conj().T, V)  # Hermitian

    def matvec(self, x: np.ndarray) -> np.ndarray:
        px = super().matvec(x)
        return x - px if self.complement and self._diag is None else px

    rmatvec = matvec  # Hermitian

    def block_matrix(self) -> np.ndarray:
        if self._diag is not None:  # the diagonal the apply multiplies by
            return np.diag(self._diag)
        V = self.basis.toarray() if sp.issparse(self.basis) else self.basis
        P = V @ V.conj().T
        return np.eye(P.shape[0]) - P if self.complement else P

    def to_sparse(self) -> sp.csr_matrix:
        return embed_sum([(self.block_matrix(), self.positions)], self.n, self.d)


class _DiagonalRun(_SiteLeaf):
    """Consecutive diagonal leaves of a chain, multiplied into one diagonal
    on the contiguous span of their sites: one broadcast multiply per apply."""

    def __init__(self, leaves: list[_SiteLeaf]):
        self.n, self.d = leaves[0].n, leaves[0].d
        sites = sorted({p for f in leaves for p in f.positions})
        lo = sites[0] if sites else 0
        span = sites[-1] - lo + 1 if sites else 0
        diag = np.ones((self.d,) * span)
        for f in leaves:
            diag = diag * _placed(f._diag, [p - lo for p in f.positions], span, self.d)
        self.positions = tuple(range(lo, lo + span))
        self._place(diag.reshape(-1))
        self.bound = float(np.abs(diag).max(initial=0.0))


def _fusable(f) -> bool:
    return isinstance(f, _SiteLeaf) and f.diagonal


def _span_dim(leaves: list[_SiteLeaf]) -> int:
    """d to the number of factors from the first to the last site of the leaves."""
    sites = [p for f in leaves for p in f.positions]
    return leaves[0].d ** (max(sites) - min(sites) + 1) if sites else 1


def _apply_plan(factors: list) -> list:
    """The factors, with each run of consecutive diagonal leaves whose sites
    span at most MATERIALIZE_CAP entries multiplied into one _DiagonalRun."""
    groups = []
    for f in factors:
        if groups and _fusable(f) and _fusable(groups[-1][0]) and (
            _span_dim(groups[-1] + [f]) <= MATERIALIZE_CAP
        ):
            groups[-1].append(f)
        else:
            groups.append([f])
    return [_DiagonalRun(g) if len(g) > 1 else g[0] for g in groups]


class OperatorChain:
    """Ordered product factors[0] @ factors[1] @ ... applied to vectors.

    Every factor is an operator with shape, matvec and rmatvec (to_dense too,
    for materializing the product).  An empty chain is the identity.
    factors stays the caller's list; the applies run through a plan built
    once, in which each run of consecutive diagonal leaves whose sites span
    at most MATERIALIZE_CAP entries is one precomputed diagonal.
    """

    def __init__(self, factors, dim: int):
        self.factors = list(factors)
        self.dim = dim
        self._plan = _apply_plan(self.factors)
        bounds = [getattr(f, "bound", None) for f in self._plan]  # None: no bound
        self.bound = None if None in bounds else math.prod(bounds)

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def diagonal(self) -> bool:
        return all(getattr(f, "diagonal", False) for f in self.factors)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        for f in reversed(self._plan):
            x = f.matvec(x)
        return x

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the conjugate transpose of the chain."""
        for f in self._plan:
            x = f.rmatvec(x)
        return x

    def diagonal_slab(self, start: int, stop: int) -> np.ndarray:
        """The plan's slabs multiplied in the order of matvec on ones (whose
        first product, by 1, is exact and skipped)."""
        if not self._plan:
            return np.ones(stop - start)
        out = self._plan[-1].diagonal_slab(start, stop)
        for f in reversed(self._plan[:-1]):
            out = f.diagonal_slab(start, stop) * out
        return out

    def to_dense(self) -> np.ndarray:
        if self.dim > MATERIALIZE_CAP:
            raise DimensionCapError(
                f"operator product too large to materialize: {self.dim} > {MATERIALIZE_CAP}"
            )
        if not self.factors:
            return np.eye(self.dim)
        out = self.factors[0].to_dense()
        for f in self.factors[1:]:
            out = out @ f.to_dense()
        return out


class Difference:
    """a - b for two matvec-capable operators of the same shape."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        bounds = getattr(a, "bound", None), getattr(b, "bound", None)
        self.bound = None if None in bounds else sum(bounds)

    @property
    def shape(self):
        return self.a.shape

    @property
    def diagonal(self) -> bool:
        return getattr(self.a, "diagonal", False) and getattr(self.b, "diagonal", False)

    def matvec(self, x):
        return self.a.matvec(x) - self.b.matvec(x)

    def rmatvec(self, x):
        return self.a.rmatvec(x) - self.b.rmatvec(x)

    def diagonal_slab(self, start: int, stop: int) -> np.ndarray:
        return self.a.diagonal_slab(start, stop) - self.b.diagonal_slab(start, stop)


def lanczos(apply, v0, tol, bound=None, deflate=lambda x: x, highest=False, subject="a level"):
    """The lowest (highest, with highest) level of a Hermitian A by one
    Lanczos run from v0, and its residual: (theta, ||A x - theta x||).

    apply(x) is A x, and deflate projects onto the space the run stays in.
    A step is the three-term recurrence and the deflation, with no
    Gram-Schmidt against the Krylov basis, whose lost orthogonality only
    duplicates converged Ritz values (Paige; Cullum and Willoughby).  The
    Krylov vectors live in Fortran blocks of LANCZOS_CHECK_STEPS columns,
    each allocated when the run reaches it.  At the end of each block, once
    the Ritz estimate beta |s_last| is at most tol(ritz) / 2, x = Q s is
    formed, deflated and normalised; theta is its Rayleigh quotient, and the
    run stops when ||A x - theta x|| <= tol(theta): by Weyl, A has a level
    that close to theta.  beta <= sqrt(dim) eps bound, with bound >= ||A||
    (the running max |alpha| when None), is an invariant Krylov space;
    there, or after LANCZOS_MAX_STEPS steps, a failed check raises.
    """
    dim, cols = v0.size, LANCZOS_CHECK_STEPS
    alpha, beta, blocks = np.empty(LANCZOS_MAX_STEPS), np.empty(LANCZOS_MAX_STEPS), []
    w = deflate(v0)
    q = w / sla.get_blas_funcs("nrm2", (w,))(w)
    for j in range(LANCZOS_MAX_STEPS):
        w = apply(q)
        if j == 0:  # the run takes the dtype of A's image
            gemv, nrm2, dotc = sla.get_blas_funcs(("gemv", "nrm2", "dotc"), (q, w))
        if j % cols == 0:
            blocks.append(np.empty((dim, cols), dtype=gemv.dtype, order="F"))
        blocks[-1][:, j % cols] = q
        alpha[j] = dotc(q, w).real
        w = deflate(w - alpha[j] * q - (beta[j - 1] * q_prev if j else 0.0))
        beta[j], q_prev = nrm2(w), q
        size = np.abs(alpha[: j + 1]).max() if bound is None else bound
        invariant = beta[j] <= math.sqrt(dim) * np.finfo(float).eps * size
        last = invariant or j + 1 == LANCZOS_MAX_STEPS
        if last or (j + 1) % cols == 0:
            k = j if highest else 0
            ritz, s = sla.eigh_tridiagonal(alpha[: j + 1], beta[:j], select="i", select_range=(k, k))
            if last or beta[j] * abs(s[-1, 0]) <= tol(ritz[0]) / 2:
                x = np.zeros(dim, dtype=gemv.dtype)
                for b, Q in enumerate(blocks):
                    m = min(cols, j + 1 - b * cols)
                    x = gemv(1.0, Q[:, :m], s[b * cols : b * cols + m, 0], 1.0, x, overwrite_y=True)
                x = deflate(x)
                x /= nrm2(x)
                Ax = apply(x)
                theta = dotc(x, Ax).real
                resid = nrm2(Ax - theta * x)
                if resid <= tol(theta):
                    return theta, resid
                if last:
                    space = ", in an invariant Krylov space" if invariant else ""
                    raise EigensolverError(
                        f"eigensolver failed on {subject}: Ritz residual {resid:.3e} "
                        f"above {tol(theta):.3e} after {j + 1} Lanczos steps{space}"
                    )
        q = w / beta[j]


def matfree_norm(op) -> float:
    """Largest singular value of a matvec/rmatvec-capable operator.

    A diagonal operator (its diagonal flag set): its largest |entry|, a
    running max over slabs of op.diagonal_slab, each the largest divisor of
    the dimension not above MATERIALIZE_CAP rows (for a prime d, the rows
    whose leading digits are fixed); no apply.  Otherwise, up to dimension
    32, the dense norm of the matrix built by matvec; above, sqrt(theta) for
    theta the highest level of op^H op (lanczos), stopped at a residual
    NORM_TOL theta + f (2 sqrt(theta) + f): the norm to relative NORM_TOL or
    to within f = sqrt(n) eps op.bound, the rounding level of an apply (0
    for an operator with no bound, such as a scipy LinearOperator).
    EigensolverError when the run does not stop: the norm is an upper bound.
    """
    n = op.shape[1]
    if getattr(op, "diagonal", False):
        size = next(s for s in range(min(n, MATERIALIZE_CAP), 0, -1) if n % s == 0)
        slab_max = [np.abs(op.diagonal_slab(lo, lo + size)).max() for lo in range(0, n, size)]
        return float(np.max(slab_max))
    if n <= 32:
        dense = np.column_stack([op.matvec(e) for e in np.eye(n)])
        return float(np.linalg.norm(dense, 2))
    B = getattr(op, "bound", None)
    f = 0.0 if B is None else math.sqrt(n) * np.finfo(float).eps * B
    v0 = np.random.default_rng(DEFAULT_NORM_SEED).standard_normal(n)
    theta, _ = lanczos(
        lambda x: op.rmatvec(op.matvec(x)), v0,
        lambda t: NORM_TOL * max(t, 0.0) + f * (2 * math.sqrt(max(t, 0.0)) + f),
        None if B is None else B * B, highest=True, subject="an operator norm",
    )
    return math.sqrt(max(theta, 0.0))
