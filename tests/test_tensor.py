"""Property tests for the matrix-free operator protocol of gapcert._tensor.

Every leaf operator (SiteBlockOperator, and FactoredProjectorBlock on some
factors or on all of them, with or without complement) and every product of
them is applied through matvec/rmatvec; these tests compare both against the
materialized matrix, and matfree_norm against the dense spectral norm on
both sides of its small-dimension branch (dimension 32).  Diagonal leaves (diagonal blocks,
bases with one stored entry per column) and chains of them are checked for
their diagonal flag and for the exact norm read slab by slab from their
diagonal, with no apply.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import gapcert._tensor as tensor
from gapcert._tensor import (
    Difference,
    FactoredProjectorBlock,
    OperatorChain,
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
from gapcert.models import commuting_toy, heisenberg_fm

KINDS = ("block", "factored", "projector")
DIAGONAL_KINDS = ("diagonal block", "one-hot factored", "one-hot projector")


def _matrix(rng, rows, cols, complex_):
    m = rng.standard_normal((rows, cols))
    return m + 1j * rng.standard_normal((rows, cols)) if complex_ else m


def _orthonormal(rng, rows, complex_):
    rank = int(rng.integers(1, rows + 1))
    return np.linalg.qr(_matrix(rng, rows, rank, complex_))[0]


def _one_hot(rng, rows, complex_):
    """Orthonormal basis with one stored entry per column, dense or sparse (CSC or CSR)."""
    rank = int(rng.integers(1, rows + 1))
    phases = np.exp(2j * np.pi * rng.random(rank)) if complex_ else rng.choice([-1.0, 1.0], rank)
    V = sp.csc_matrix(
        (phases, (rng.choice(rows, size=rank, replace=False), np.arange(rank))), shape=(rows, rank)
    )
    return [V, V.tocsr(), V.toarray()][int(rng.integers(3))]


def _leaf(rng, kind, n, d, complex_):
    if kind in ("projector", "one-hot projector"):
        basis = (_orthonormal if kind == "projector" else _one_hot)(rng, d ** n, complex_)
        complement = bool(rng.integers(2))
        return FactoredProjectorBlock(basis, tuple(range(n)), n, d, complement=complement)
    # a factored or diagonal block may act on no site at all
    m = int(rng.integers(1 if kind == "block" else 0, min(n, 3) + 1))
    start = int(rng.integers(0, n - m + 1))
    # any sites (the _front path), or one contiguous run (the view path): at
    # the first sites, at the last sites (nothing after the run), or anywhere
    positions = [
        sorted(rng.choice(n, size=m, replace=False)),
        range(m),
        range(n - m, n),
        range(start, start + m),
    ][int(rng.integers(4))]
    positions = tuple(int(p) for p in positions)
    if kind == "block":
        return SiteBlockOperator(_matrix(rng, d ** m, d ** m, complex_), positions, n, d)
    if kind == "diagonal block":
        # some diagonal entries exactly zero, as in the diagonal projectors of the toy model
        diag = _matrix(rng, 1, d ** m, complex_)[0] * rng.integers(0, 2, d ** m)
        return SiteBlockOperator(np.diag(diag), positions, n, d)
    basis = (_orthonormal if kind == "factored" else _one_hot)(rng, d ** m, complex_)
    return FactoredProjectorBlock(basis, positions, n, d)


@st.composite
def chains(draw, d=None, n=None, kinds=KINDS):
    """Random OperatorChain of up to four draws of the given kinds; qutrit chains stop at n = 4.

    A diagonal kind draws one to three adjacent leaves.
    """
    d = draw(st.sampled_from([2, 3])) if d is None else d
    n = draw(st.integers(1, 6 if d == 2 else 4)) if n is None else n
    complex_ = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(kinds), max_size=4))
    # a diagonal kind may come as a run of adjacent leaves, which the chain fuses
    kinds = [k for k in kinds for _ in range(draw(st.integers(1, 3)) if k in DIAGONAL_KINDS else 1)]
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


_SWAP_BIT = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: SiteBlockOperator(_SWAP_BIT, (-1,), 6, 2),
        lambda: SiteBlockOperator(_SWAP_BIT, (6,), 6, 2),
        lambda: SiteBlockOperator(np.eye(2), (7,), 6, 2),
        lambda: FactoredProjectorBlock(np.eye(2)[:, :1], (6,), 6, 2),
        lambda: FactoredProjectorBlock(np.eye(2)[:, :1], (-1,), 6, 2),
        lambda: FactoredProjectorBlock(np.eye(4)[:, :2], (2, 1), 6, 2),
        lambda: FactoredProjectorBlock(np.eye(4)[:, :2], (1, 1), 6, 2),
    ],
    ids=[
        "block-negative", "block-past-end", "diagonal-block-past-end", "one-hot-past-end",
        "one-hot-negative", "factored-decreasing", "factored-repeated",
    ],
)
def test_leaf_positions_checked_at_construction(make):
    with pytest.raises(ValueError, match="positions"):
        make()


def test_fused_diagonal_runs_match_unfused_bit_for_bit():
    # dyadic entries times 1 or i: every product is exact, in any order
    n, d = 13, 2
    rng = np.random.default_rng(3)

    def dyadic(size):
        return rng.integers(-8, 9, size) / 8 * rng.choice([1.0, 1j], size)

    positions = [(0, 1), (2,), (1, 2, 3), (5, 7), (12,), (11, 12), (6,)]
    factors = [SiteBlockOperator(np.diag(dyadic(d ** len(p))), p, n, d) for p in positions]
    chain = OperatorChain(factors, d ** n)
    # the first four span sites 0..7; adding site 12 would span 2^13 entries,
    # above MATERIALIZE_CAP, so the last three are a second run
    assert len(chain._plan) == 2
    x = dyadic(d ** n)
    y, z = x, x
    for f in reversed(factors):
        y = f.matvec(y)
    for f in factors:
        z = f.rmatvec(z)
    assert np.array_equal(chain.matvec(x), y)
    assert np.array_equal(chain.rmatvec(x), z)


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_one_hot_block_materializes_the_diagonal_it_applies(complement, sparse):
    # a complex one-hot basis on factors (0, 2) of 3: to_dense is the
    # diagonal that matvec multiplies by, bit for bit, for every phase
    n, d = 3, 2
    ones = np.ones(d ** n)
    for phase in np.exp(2j * np.pi * np.random.default_rng(5).random(100)):
        V = sp.csc_matrix(([phase, phase], ([1, 2], [0, 1])), shape=(d ** 2, 2))
        f = FactoredProjectorBlock(V if sparse else V.toarray(), (0, 2), n, d, complement=complement)
        assert np.array_equal(f.to_dense(), np.diag(f.matvec(ones)))


def test_fused_run_reads_the_complemented_diagonal():
    # a one-hot complement between two diagonal blocks, all within
    # MATERIALIZE_CAP: one fused run, whose diagonal must be 1 - |v|^2
    n, d = 10, 2
    dim = d ** n
    rng = np.random.default_rng(8)
    rows = rng.choice(dim, size=300, replace=False)
    V = sp.csc_matrix((rng.choice([1.0, -1.0, 1j], rows.size), (rows, np.arange(rows.size))),
                      shape=(dim, rows.size))
    a, b = rng.integers(1, 9, 8) / 8, rng.integers(1, 9, 4) / 8
    chain = OperatorChain(
        [
            SiteBlockOperator(np.diag(a), (0, 4, 9), n, d),
            FactoredProjectorBlock(V, tuple(range(n)), n, d, complement=True),
            SiteBlockOperator(np.diag(b), (2, 3), n, d),
        ],
        dim,
    )
    assert dim <= tensor.MATERIALIZE_CAP
    assert len(chain._plan) == 1 and isinstance(chain._plan[0], tensor._DiagonalRun)
    # the dense product, built from the basis digits, not from the leaves
    digit = [np.arange(dim) >> (n - 1 - p) & 1 for p in range(n)]
    complement = np.eye(dim) - (V @ V.conj().T).toarray()
    dense = np.diag(a[4 * digit[0] + 2 * digit[4] + digit[9]]) @ complement @ np.diag(
        b[2 * digit[2] + digit[3]]
    )
    assert _off_diagonal_nonzeros(dense) == 0
    x = _vector(dim)
    assert np.array_equal(chain.matvec(x), dense @ x)
    assert np.array_equal(chain.diagonal_slab(0, dim), np.diagonal(dense))
    assert np.array_equal(chain.diagonal_slab(256, 512), np.diagonal(dense)[256:512])
    assert matfree_norm(chain) == float(np.abs(np.diagonal(dense)).max())


def test_empty_and_one_factor_chains_materialize_exactly():
    assert np.array_equal(OperatorChain([], 8).to_dense(), np.eye(8))
    rng = np.random.default_rng(5)
    for kind in KINDS + DIAGONAL_KINDS:
        leaf = _leaf(rng, kind, 3, 2, complex_=True)
        assert np.array_equal(OperatorChain([leaf], 8).to_dense(), leaf.to_dense())


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
    # the bound the norm's stop reads: 1 per projector and per Chebyshev
    # step, sum |c_i| per coefficient polynomial
    assert op.bound >= ref * (1 - 1e-12)


def _off_diagonal_nonzeros(dense):
    return np.count_nonzero(dense) - np.count_nonzero(np.diagonal(dense))


def _is_real(leaf):
    return not np.iscomplexobj(leaf.block if isinstance(leaf, SiteBlockOperator) else leaf.basis)


@settings(max_examples=80, deadline=None)
@given(chains(kinds=KINDS + DIAGONAL_KINDS))
def test_mixed_chain_flag_applies_and_norm(chain):
    dense = chain.to_dense()
    _assert_applies_match(chain, dense)
    # the flag is structural: set exactly when every leaf is diagonal, and then
    # the product has no off-diagonal entry (the converse fails by cancellation)
    assert chain.diagonal == all(f.diagonal for f in chain.factors)
    if chain.diagonal:
        assert _off_diagonal_nonzeros(dense) == 0
    for f in chain.factors:
        off = _off_diagonal_nonzeros(f.to_dense())
        if f.diagonal:
            assert off == 0
        if isinstance(f, SiteBlockOperator):
            assert f.diagonal == (off == 0)
    # real leaves applied to a real vector stay real, on both paths
    if all(_is_real(f) for f in chain.factors):
        x = np.random.default_rng(1).standard_normal(chain.dim)
        assert chain.matvec(x).dtype == chain.rmatvec(x).dtype == np.float64
    ref = float(np.linalg.norm(dense, 2))
    tol = 1e-13 if chain.diagonal else 1e-8
    assert abs(matfree_norm(chain) - ref) <= tol * max(1.0, ref)
    # the structural bound on the norm, from the plan's leaves
    assert chain.bound >= ref * (1 - 1e-12)
    assert all(f.bound >= np.linalg.norm(f.to_dense(), 2) * (1 - 1e-12) for f in chain.factors)


@settings(max_examples=40, deadline=None)
@given(chains(kinds=DIAGONAL_KINDS))
def test_diagonal_leaves_make_diagonal_chains(chain):
    assert chain.diagonal
    assert all(f.diagonal for f in chain.factors)
    assert _off_diagonal_nonzeros(chain.to_dense()) == 0


def _no_lanczos(*args, **kwargs):
    raise AssertionError("Lanczos run on a diagonal operator")


def _count_applies(op):
    """Count op's matvec and rmatvec calls (instance attributes shadow the methods)."""
    counts = {"matvec": 0, "rmatvec": 0}
    for name in counts:
        method = getattr(op, name)

        def counted(x, name=name, method=method):
            counts[name] += 1
            return method(x)

        setattr(op, name, counted)
    return counts


def _dyadic_diagonal_chain(n=8, d=2):
    """A diagonal chain whose entries are small dyadic rationals times 1 or i.

    Every product of them is exact in floating point, in any association
    order, so the materialized matrix and the matrix-free apply agree exactly.
    """
    rng = np.random.default_rng(5)

    def dyadic(size):
        return rng.integers(-8, 9, size) / 8 * rng.choice([1.0, 1j], size)

    def one_hot(rows, rank):
        idx = rng.choice(rows, size=rank, replace=False)
        values = rng.choice([1.0, -1.0, 1j], rank)
        return sp.csc_matrix((values, (idx, np.arange(rank))), shape=(rows, rank))

    factors = [
        SiteBlockOperator(np.diag(dyadic(8)), (0, 3, 7), n, d),
        FactoredProjectorBlock(one_hot(16, 9), (1, 2, 5, 6), n, d),
        SiteBlockOperator(np.diag(dyadic(4)), (2, 6), n, d),
        FactoredProjectorBlock(one_hot(d ** n, 40), tuple(range(n)), n, d, complement=True),
        SiteBlockOperator(np.diag(dyadic(2)), (4,), n, d),
    ]
    return OperatorChain(factors, d ** n)


class TestDiagonalNorm:
    def test_toy_dl_norms_without_applies(self, monkeypatch):
        g = chain_graph(10)
        toy = commuting_toy(g)
        decomp = column_decomposition(toy, g, tuple(range(10)), 4)
        dl = dl_operator(decomp)
        T = layer_product(toy, tuple(range(10)))
        n_even = len(decomp.even_indices)
        inserted = OperatorChain(
            dl.factors[:n_even] + [_GramPolynomial([1.0, -1.0], T)] + dl.factors[n_even:], dl.dim
        )
        # DL(t), the layer product, and the insertion identity's difference
        ops = [dl, T, Difference(dl, inserted)]
        monkeypatch.setattr(tensor, "lanczos", _no_lanczos)
        for op in ops:
            assert op.diagonal
            counts = _count_applies(op)
            value = matfree_norm(op)
            assert counts == {"matvec": 0, "rmatvec": 0}
            if hasattr(op, "to_dense"):
                assert value == float(np.linalg.norm(op.to_dense(), 2))
        assert matfree_norm(dl) == 1.0

    def test_random_diagonal_chain_is_exact(self, monkeypatch):
        chain = _dyadic_diagonal_chain()
        monkeypatch.setattr(tensor, "lanczos", _no_lanczos)
        assert chain.diagonal
        counts = _count_applies(chain)
        value = matfree_norm(chain)
        assert counts == {"matvec": 0, "rmatvec": 0}
        dense = chain.to_dense()
        assert _off_diagonal_nonzeros(dense) == 0
        assert value > 0.0
        assert value == float(np.linalg.norm(dense, 2))

    @pytest.mark.parametrize("d,n", [(2, 14), (3, 9), (6, 5)])
    def test_slabs_match_the_full_diagonal(self, d, n, monkeypatch):
        # several slabs (d = 6: 3888 rows, half of a 6^5 block); the one-hot
        # complement's rows straddle every slab boundary
        dim = d ** n
        size = next(s for s in range(tensor.MATERIALIZE_CAP, 0, -1) if dim % s == 0)
        assert dim // size >= 2
        rng = np.random.default_rng(3)
        edges = np.arange(size, dim, size)
        rows = np.unique(np.concatenate([edges - 1, edges, rng.choice(dim, 30, replace=False)]))
        values = rng.choice([1.0, -1.0, 1j], rows.size)
        V = sp.csc_matrix((values, (rows, np.arange(rows.size))), shape=(dim, rows.size))

        def dyadic(size):
            return rng.integers(1, 9, size) / 8 * rng.choice([1.0, -1.0, 1j], size)

        chain = OperatorChain(
            [
                SiteBlockOperator(np.diag(dyadic(d ** 2)), (0, n - 1), n, d),
                FactoredProjectorBlock(V, tuple(range(n)), n, d, complement=True),
                SiteBlockOperator(np.diag(dyadic(d ** 3)), (1, 2, 3), n, d),
                SiteBlockOperator(np.diag(dyadic(d)), (n - 2,), n, d),
            ],
            dim,
        )
        full = chain.matvec(np.ones(dim))
        slabs = [chain.diagonal_slab(lo, lo + size) for lo in range(0, dim, size)]
        assert np.array_equal(np.concatenate(slabs), full)
        monkeypatch.setattr(tensor, "lanczos", _no_lanczos)
        counts = _count_applies(chain)
        assert matfree_norm(chain) == float(np.abs(full).max())
        assert counts == {"matvec": 0, "rmatvec": 0}

    def test_tiny_off_diagonal_entry_takes_lanczos(self, monkeypatch):
        block = np.diag([1.0, 0.5, 0.25, 2.0])
        block[0, 1] = 1e-300
        op = SiteBlockOperator(block, (1, 4), 6, 2)
        foreign = spla.aslinearoperator(np.diag(np.arange(64.0)))
        calls = []
        real = tensor.lanczos

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "lanczos", counting)
        assert not op.diagonal
        assert not OperatorChain([op], 64).diagonal
        assert matfree_norm(op) == pytest.approx(2.0, rel=1e-8)
        assert matfree_norm(foreign) == pytest.approx(63.0, rel=1e-8)
        assert len(calls) == 2


def test_tiny_non_diagonal_norm_converges():
    # the Gram operator's levels are ~1e-32: a foreign operator has no bound
    # and stops on the relative residual alone
    rng = np.random.default_rng(11)
    A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    dense = 1e-16 * (A + A.conj().T)
    exact = np.linalg.norm(dense, 2)
    # pytest.approx would pass it on its 1e-12 absolute default
    assert abs(matfree_norm(spla.aslinearoperator(dense)) - exact) <= 1e-8 * exact
    assert matfree_norm(spla.aslinearoperator(np.zeros((64, 64)))) == 0.0
    # an in-house operator's rounding floor scales with its bound, here
    # ||block|| = 2.1e-15, so it does not clip a genuinely small norm
    block = 1e-16 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    op = SiteBlockOperator(block, tuple(range(6)), 6, 2)
    assert not op.diagonal and op.bound == np.linalg.norm(block, 2)
    exact = np.linalg.norm(op.to_dense(), 2)
    assert abs(matfree_norm(op) - exact) <= 1e-8 * exact


def test_rounding_level_commutator_stops_at_once():
    # the two odd columns of the FM n = 13 chain at t = 2 (the dl-check's one
    # same-parity pair) commute: their commutator's norm is at the rounding
    # level (1.6e-16 by ARPACK, after 41 Gram products); its bound 2 puts the
    # stop at the rounding floor
    g = chain_graph(13)
    decomp = column_decomposition(heisenberg_fm(g), g, tuple(range(13)), 2)
    assert (decomp.even_indices, decomp.odd_indices) == ([4], [-2, 10])
    qm, qn = (decomp.projectors[m] for m in decomp.odd_indices)
    comm = Difference(OperatorChain([qm, qn], decomp.dim), OperatorChain([qn, qm], decomp.dim))
    assert not comm.diagonal and comm.bound == 2.0
    products = _count_applies(comm)
    assert matfree_norm(comm) <= 1e-12
    assert products["matvec"] == products["rmatvec"] <= tensor.LANCZOS_CHECK_STEPS + 2
