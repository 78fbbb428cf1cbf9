"""Property tests for the matrix-free operator protocol of gapcert._tensor.

Every leaf operator (SiteBlockOperator, FactoredProjectorBlock,
ProjectorFromBasis) and every product of them is applied through
matvec/rmatvec; these tests compare both against the materialized matrix,
and matfree_norm against the dense spectral norm on both sides of its
small-dimension branch (dimension 32).
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert._tensor import (
    Difference,
    FactoredProjectorBlock,
    OperatorChain,
    ProjectorFromBasis,
    SiteBlockOperator,
    matfree_norm,
)
from gapcert.detectability import (
    ChebyshevStep,
    _GramPolynomial,
    column_decomposition,
    dl_operator,
    layer_product,
)
from gapcert.lattice import chain_graph
from gapcert.models import heisenberg_fm

KINDS = ("block", "factored", "projector")


def _matrix(rng, rows, cols, complex_):
    m = rng.standard_normal((rows, cols))
    return m + 1j * rng.standard_normal((rows, cols)) if complex_ else m


def _orthonormal(rng, rows, complex_):
    rank = int(rng.integers(1, rows + 1))
    return np.linalg.qr(_matrix(rng, rows, rank, complex_))[0]


def _leaf(rng, kind, n, d, complex_):
    if kind == "projector":
        return ProjectorFromBasis(
            _orthonormal(rng, d ** n, complex_), d ** n, complement=bool(rng.integers(2))
        )
    # a factored block may act on no site at all (the identity projector)
    m = int(rng.integers(1 if kind == "block" else 0, min(n, 3) + 1))
    positions = tuple(int(p) for p in sorted(rng.choice(n, size=m, replace=False)))
    if kind == "block":
        return SiteBlockOperator(_matrix(rng, d ** m, d ** m, complex_), positions, n, d)
    return FactoredProjectorBlock(_orthonormal(rng, d ** m, complex_), positions, n, d)


@st.composite
def chains(draw, d=None, n=None):
    """Random OperatorChain of up to four leaves; qutrit chains stop at n = 4."""
    d = draw(st.sampled_from([2, 3])) if d is None else d
    n = draw(st.integers(1, 6 if d == 2 else 4)) if n is None else n
    complex_ = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return OperatorChain([_leaf(rng, k, n, d, complex_) for k in kinds], d ** n)


def _vector(dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _assert_applies_match(op, dense):
    x = _vector(dense.shape[1])
    scale = max(1.0, float(np.linalg.norm(dense, 2))) * np.linalg.norm(x)
    assert np.linalg.norm(op.matvec(x) - dense @ x) <= 1e-10 * scale
    assert np.linalg.norm(op.rmatvec(x) - dense.conj().T @ x) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(chains())
def test_chain_applies_match_dense(chain):
    _assert_applies_match(chain, chain.to_dense())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 6]).flatmap(lambda n: chains(d=2, n=n)))
def test_matfree_norm_matches_dense_norm(chain):
    # 2^5 takes the dense branch, 2^6 the Lanczos branch
    ref = float(np.linalg.norm(chain.to_dense(), 2))
    assert abs(matfree_norm(chain) - ref) <= 1e-8 * max(1.0, ref)


@lru_cache(maxsize=None)
def _fm_dl_and_layers(n):
    g = chain_graph(n)
    phi = heisenberg_fm(g)
    region = tuple(range(n))
    return column_decomposition(phi, g, region, 4), layer_product(phi, region)


def _dense_poly(F, S):
    """F(S) for Hermitian S, through its eigendecomposition."""
    w, U = np.linalg.eigh(S)
    values = np.array([F(x) for x in w]) if isinstance(F, ChebyshevStep) else np.polyval(F[::-1], w)
    return (U * values) @ U.conj().T


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([4, 5, 6]),
    st.one_of(
        st.builds(ChebyshevStep, st.integers(1, 3), st.floats(0.05, 0.95)),
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    ),
)
def test_insertion_composite_without_to_dense(n, F):
    # DL - (even block) F(1 - T^dag T) (odd block), for any F: only matvec/rmatvec exist
    decomp, T = _fm_dl_and_layers(n)
    dl = dl_operator(decomp)
    n_even = len(decomp.even_indices)
    inserted = OperatorChain(
        dl.factors[:n_even] + [_GramPolynomial(F, T)] + dl.factors[n_even:], decomp.dim
    )
    op = Difference(dl, inserted)
    assert not hasattr(op, "to_dense")
    Td = T.to_dense()
    even = OperatorChain(dl.factors[:n_even], decomp.dim).to_dense()
    odd = OperatorChain(dl.factors[n_even:], decomp.dim).to_dense()
    dense = dl.to_dense() - even @ _dense_poly(F, np.eye(decomp.dim) - Td.conj().T @ Td) @ odd
    _assert_applies_match(op, dense)
    ref = float(np.linalg.norm(dense, 2))
    assert abs(matfree_norm(op) - ref) <= 1e-8 * max(1.0, ref)
