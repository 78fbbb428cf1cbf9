"""Tensor-factor bookkeeping for operators on d^n dimensional product spaces.

Sites of a region are tensor factors in ascending vertex-id order; basis
index of a product state is sum_i digit_i * d**(n-1-i) (first site most
significant).  Everything here is dtype-preserving: real inputs stay real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionCapError, EigensolverError


# start vector of the Lanczos norm; it steers convergence, not the converged value
DEFAULT_NORM_SEED = 7
NORM_TOL = 1e-10
# largest product-space dimension that OperatorChain.to_dense materializes
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


def _apply_diagonal(
    diag: np.ndarray, positions: tuple[int, ...], n: int, d: int, x: np.ndarray
) -> np.ndarray:
    """x times a diagonal acting on the given factors: one broadcast multiply.

    diag has length d^m in the factors' own order; it is reshaped to d on
    the positions and 1 elsewhere, so no d^n-sized diagonal is formed.
    """
    shape = [1] * n
    for p in positions:
        shape[p] = d
    return (x.reshape((d,) * n) * diag.reshape(shape)).reshape(-1)


def _one_hot_columns(V) -> bool:
    """True when every column of V has at most one stored entry (no tolerance)."""
    counts = np.diff(sp.csc_matrix(V).indptr) if sp.issparse(V) else np.count_nonzero(V, axis=0)
    return bool(np.all(counts <= 1))


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


def embed_sum(blocks, n: int, d: int) -> sp.csr_matrix:
    """Sum of blocks, each acting on its factor positions and identity elsewhere (CSR).

    blocks is a list of (block, positions) with block d^m x d^m in the
    factors' own order.  Every diagonal is added by broadcast into one
    (d,)*n vector; an off-diagonal entry (r, c) of a block lands on the
    rows offset(r) + offset(rest) and columns offset(c) + offset(rest),
    where offset sums the digits times the place values of their factors.
    The CSR matrix is built once and holds no explicit zeros.  Its dtype is
    float64, or complex128 when a block is complex.
    """
    dtype = np.result_type(np.float64, *(np.asarray(b).dtype for b, _ in blocks))
    diag = np.zeros((d,) * n, dtype=dtype)
    rows, cols, vals = [], [], []
    for block, positions in blocks:
        block = np.asarray(block)
        shape = [1] * n
        for p in positions:
            shape[p] = d
        diag += np.diagonal(block).reshape(shape)
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
            shape=H.shape, dtype=dtype,
        )
        # off-diagonal entries never meet the diagonal; the sum drops cancelled ones
        H = H + off
    return H


@dataclass(eq=False)
class SiteBlockOperator:
    """A small matrix acting on selected tensor factors of a d^n space.

    An apply moves the block's factors to the front (_front), multiplies by
    the block once and moves them back (_unfront), as FactoredProjectorBlock
    does, and never materializes the d^n x d^n matrix, so products of many
    of these stay cheap.  A block with exact zeros off its diagonal is
    applied as a broadcast multiply.
    """

    block: np.ndarray
    positions: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        self.positions = tuple(self.positions)
        m = len(self.positions)
        if self.block.shape != (self.d ** m, self.d ** m):
            raise ValueError("block dimension does not match positions")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be strictly increasing")
        diag = np.diagonal(self.block)
        self._diag = diag.copy() if np.count_nonzero(self.block) == np.count_nonzero(diag) else None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d ** self.n, self.d ** self.n)

    @property
    def diagonal(self) -> bool:
        """Exact zeros off the diagonal of the block."""
        return self._diag is not None

    def _apply(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        xf = _front(x, self.positions, self.n, self.d)
        return _unfront(mat @ xf, self.positions, self.n, self.d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return _apply_diagonal(self._diag, self.positions, self.n, self.d, x)
        return self._apply(self.block, x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return _apply_diagonal(self._diag.conj(), self.positions, self.n, self.d, x)
        return self._apply(self.block.conj().T, x)

    def to_sparse(self) -> sp.csr_matrix:
        return embed_sum([(self.block, self.positions)], self.n, self.d)

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()


@dataclass(eq=False)
class FactoredProjectorBlock:
    """V V^dag acting on selected tensor factors, kept in factored form.

    For kernel projectors of large sub-regions the rank is tiny compared to
    the block dimension, so applying two skinny matmuls beats storing the
    d^m x d^m projector.  The basis may be dense or sparse (one-hot kernel
    bases of diagonal Hamiltonians stay sparse).  A basis with at most one
    stored entry per column makes V V^dag diagonal, applied as a broadcast
    multiply.
    """

    basis: object  # (d^m, r) ndarray or sparse, orthonormal columns
    positions: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        self.positions = tuple(self.positions)
        m = len(self.positions)
        if self.basis.shape[0] != self.d ** m:
            raise ValueError("basis rows do not match positions")
        self._diag = None
        if _one_hot_columns(self.basis):
            V = self.basis
            abs2 = V.multiply(V.conj()) if sp.issparse(V) else V * V.conj()
            self._diag = np.asarray(abs2.sum(axis=1)).reshape(-1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d ** self.n, self.d ** self.n)

    @property
    def diagonal(self) -> bool:
        """At most one stored entry per basis column."""
        return self._diag is not None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._diag is not None:
            return _apply_diagonal(self._diag, self.positions, self.n, self.d, x)
        V = self.basis
        xf = _front(x, self.positions, self.n, self.d)
        yf = np.asarray(V @ (V.conj().T @ xf))
        y = _unfront(yf, self.positions, self.n, self.d)
        return y.astype(np.result_type(V.dtype, x.dtype), copy=False)

    rmatvec = matvec  # Hermitian

    def block_matrix(self) -> np.ndarray:
        V = self.basis.toarray() if sp.issparse(self.basis) else self.basis
        return V @ V.conj().T

    def to_sparse(self) -> sp.csr_matrix:
        return embed_sum([(self.block_matrix(), self.positions)], self.n, self.d)

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()


class OperatorChain:
    """Ordered product factors[0] @ factors[1] @ ... applied to vectors.

    Every factor is an operator with shape, matvec and rmatvec (to_dense too,
    for materializing the product).  An empty chain is the identity.
    """

    def __init__(self, factors, dim: int):
        self.factors = list(factors)
        self.dim = dim

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def diagonal(self) -> bool:
        return all(getattr(f, "diagonal", False) for f in self.factors)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        for f in reversed(self.factors):
            x = f.matvec(x)
        return x

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the conjugate transpose of the chain."""
        for f in self.factors:
            x = f.rmatvec(x)
        return x

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


class ProjectorFromBasis:
    """Orthogonal projector V V^dag given an orthonormal (possibly sparse) basis V."""

    def __init__(self, basis, dim: int, complement: bool = False):
        self.basis = basis
        self.dim = dim
        self.complement = complement
        self._one_hot = _one_hot_columns(basis)

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def diagonal(self) -> bool:
        """At most one stored entry per basis column."""
        return self._one_hot

    def matvec(self, x):
        V = self.basis
        px = V @ (V.conj().T @ x)
        return x - px if self.complement else px

    rmatvec = matvec  # Hermitian

    def to_dense(self):
        V = self.basis
        V = V.toarray() if sp.issparse(V) else V
        P = V @ V.conj().T
        return np.eye(self.dim) - P if self.complement else P


def matfree_norm(op) -> float:
    """Largest singular value of a matvec/rmatvec-capable operator.

    A diagonal operator (its diagonal flag set) has the largest |entry| of
    op.matvec(ones) as its norm, exact from one apply.  Otherwise, up to
    dimension 32 the matrix is built from matvec on the identity columns and
    its norm taken densely; above, Lanczos on the Gram operator op^dag op,
    scaled to order one, so that a tiny norm converges like any other; only
    the zero operator gets exactly 0.
    Raises EigensolverError when ARPACK does not converge: the norm is used
    as an upper bound, and no cheaper estimate is one.
    """
    n = op.shape[1]
    if getattr(op, "diagonal", False):
        return float(np.abs(op.matvec(np.ones(n))).max())
    if n <= 32:
        dense = np.column_stack([op.matvec(e) for e in np.eye(n)])
        return float(np.linalg.norm(dense, 2))
    rng = np.random.default_rng(DEFAULT_NORM_SEED)

    def gram(x):
        return op.rmatvec(op.matvec(x))

    v0 = rng.standard_normal(n)
    # ARPACK's stop is relative only above eps^(2/3), which the Gram operator
    # of a tiny operator passes at once: scale it by the size of its image of
    # v0, which is 0 only for the zero operator
    probe = gram(v0)
    scale = float(np.linalg.norm(probe) / np.linalg.norm(v0))
    if scale == 0.0:
        return 0.0

    def scaled_gram(x):
        return gram(x) / scale

    G = spla.LinearOperator((n, n), matvec=scaled_gram, rmatvec=scaled_gram, dtype=probe.dtype)
    try:
        vals = spla.eigsh(
            G, k=1, which="LA", v0=v0, tol=NORM_TOL,
            maxiter=max(2000, 20 * n), return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"eigensolver failed on an operator norm: {exc}") from exc
    return float(np.sqrt(max(float(vals[-1]), 0.0) * scale))
