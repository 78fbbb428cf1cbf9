import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert import _tensor, operators
from gapcert._tensor import Difference, FactoredProjectorBlock, OperatorChain, matfree_norm
from gapcert.errors import DimensionCapError, EigensolverError, InteractionError, RegionError
from gapcert.interaction import Interaction, InteractionTerm
from gapcert.lattice import chain_graph, grid_graph, make_region
from gapcert.models import aklt_chain, commuting_toy, heisenberg_fm, random_low_rank
from gapcert.operators import (
    DENSE_CAP,
    GlobalOperator,
    check_frustration_free,
    embed,
    hamiltonian,
    kernel_basis,
    sandwich_check,
    spectral_data,
)

from conftest import (
    dense_bond_hamiltonian,
    dense_chain_hamiltonian,
    dense_embed,
    dense_gap,
    dense_ground_projector,
    singlet_4x4,
)


class TestEmbed:
    def test_identity_term(self):
        term = InteractionTerm((1,), np.eye(2))
        out = embed(term, (0, 1, 2), 2)
        assert np.allclose(out.to_dense(), np.eye(8))

    def test_trace_multiplicativity(self):
        term = InteractionTerm((0, 1), singlet_4x4())
        out = embed(term, (0, 1, 2), 2)
        assert out.to_dense().trace() == pytest.approx(2.0 * 1.0)  # d^(n-m) * rank

    def test_against_dense_oracle(self):
        term = singlet_4x4()
        region = (0, 1, 2, 3)
        for sites in [(0, 1), (1, 2), (0, 3), (1, 3)]:
            ours = embed(InteractionTerm(sites, term), region, 2).to_dense()
            oracle = dense_embed(term, sites, region, 2)
            assert np.allclose(ours, oracle, atol=1e-12)

    def test_support_outside_region(self):
        term = InteractionTerm((0, 5), singlet_4x4())
        with pytest.raises(RegionError, match="outside region"):
            embed(term, (0, 1, 2), 2)

    def test_shape_not_d_to_the_support_rejected_when_made(self):
        # checked when the operator is made, as by Interaction, not first
        # met in a reshape when the matrix is read
        term = InteractionTerm((0, 1), np.eye(2))
        match = r"matrix shape \(2, 2\) does not match d\^2"
        with pytest.raises(InteractionError, match=match):
            embed(term, (0, 1, 2), 2)
        with pytest.raises(InteractionError, match=match):
            GlobalOperator((0, 1, 2), 2, [InteractionTerm((0,), np.eye(2)), term])

    def test_three_body_term_against_dense_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        block = a + a.conj().T
        region = (0, 1, 2, 3, 4)
        for sites in [(0, 2, 3), (1, 3, 4), (0, 1, 4)]:
            ours = embed(InteractionTerm(sites, block), region, 2).to_dense()
            oracle = dense_embed(block, sites, region, 2)
            assert np.allclose(ours, oracle, atol=1e-12)

    def test_qutrit_complex_non_adjacent_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        block = a + a.conj().T
        region = (0, 1, 2, 3, 4)
        for sites in [(0, 2), (1, 4), (0, 4), (2, 3)]:
            ours = embed(InteractionTerm(sites, block), region, 3).to_dense()
            oracle = dense_embed(block, sites, region, 3)
            assert np.allclose(ours, oracle, atol=1e-12)


class TestHamiltonian:
    def test_region_without_terms_is_zero(self):
        phi = heisenberg_fm(chain_graph(6))
        H = hamiltonian(phi, (0,))
        assert H.dim == 2
        assert np.count_nonzero(H.to_dense()) == 0

    def test_two_site_spectrum(self):
        phi = heisenberg_fm(chain_graph(2))
        H = hamiltonian(phi, (0, 1))
        w = np.linalg.eigvalsh(H.to_dense())
        assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_operator_is_frozen(self):
        # the sparse solve reads the terms, so the matrix must not move away
        # from them
        H = hamiltonian(heisenberg_fm(chain_graph(4)), (0, 1, 2, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            H.matrix = 2 * H.matrix
        with pytest.raises(dataclasses.FrozenInstanceError):
            H.terms = None
        with pytest.raises(AttributeError):
            H.terms.append((np.eye(2), (0,)))

    def test_diagonal_hamiltonian_is_solved_unassembled(self):
        phi = commuting_toy(chain_graph(12))
        H = hamiltonian(phi, tuple(range(12)))
        sd = spectral_data(H, with_basis=True)
        assert sd.solver == "diagonal"
        assert "matrix" not in vars(H)  # the CSR is built on first read only
        diag = H.matrix.diagonal()
        assert H.matrix.format == "csr" and H.matrix.has_canonical_format
        assert sd.kernel_dim == np.count_nonzero(diag == 0)
        assert np.array_equal(sd.basis.nonzero()[0], np.flatnonzero(diag == 0))

    def test_four_site_kernel_dimension(self):
        phi = heisenberg_fm(chain_graph(4))
        sd = spectral_data(hamiltonian(phi, (0, 1, 2, 3), projector_form=True))
        assert sd.kernel_dim == 5

    def test_matches_dense_oracle(self):
        phi = heisenberg_fm(chain_graph(5))
        ours = hamiltonian(phi, tuple(range(5))).to_dense()
        oracle = dense_chain_hamiltonian(5, singlet_4x4())
        assert np.allclose(ours, oracle, atol=1e-12)

    def test_dimension_cap(self):
        phi = heisenberg_fm(chain_graph(30))
        with pytest.raises(DimensionCapError, match="region too large"):
            hamiltonian(phi, tuple(range(30)), cap=2 ** 20)

    def test_real_model_stays_real(self):
        phi = heisenberg_fm(chain_graph(4))
        H = hamiltonian(phi, tuple(range(4)))
        assert not np.iscomplexobj(H.to_dense())


TERM_KINDS = ("dense", "diagonal", "zero diagonal", "zero")


def _hermitian_block(rng, dim, kind, complex_, dyadic):
    """Hermitian block of the given kind; dyadic entries make every sum exact."""
    def draw():
        return rng.integers(-2, 3, (dim, dim)) / 4 if dyadic else rng.standard_normal((dim, dim))

    a = draw() + 1j * draw() if complex_ else draw()
    h = a + a.conj().T
    if kind == "diagonal":
        # some diagonal entries exactly zero, as in the commuting toy's projectors
        h = np.diag(np.diagonal(h) * rng.integers(0, 2, dim))
    elif kind == "zero diagonal":
        np.fill_diagonal(h, 0)
    elif kind == "zero":
        h = np.zeros_like(h)
    return h


@st.composite
def interactions_in_region(draw):
    """Terms of mixed kinds on random (often non-contiguous) supports of a chain
    or a 2 x k grid, and a random sub-region; sometimes one term is cancelled
    exactly by its negative."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        g = grid_graph(2, draw(st.integers(1, 3 if d == 2 else 2)))
    else:
        g = chain_graph(draw(st.integers(1, 6 if d == 2 else 4)))
    sites = list(g.ids)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dyadic = draw(st.booleans())
    terms = []
    for kind, complex_ in draw(
        st.lists(st.tuples(st.sampled_from(TERM_KINDS), st.booleans()), min_size=1, max_size=6)
    ):
        m = int(rng.integers(1, min(len(sites), 3) + 1))
        support = make_region(rng.choice(sites, size=m, replace=False))
        terms.append(InteractionTerm(support, _hermitian_block(rng, d ** m, kind, complex_, dyadic)))
    if draw(st.booleans()):
        terms.append(InteractionTerm(terms[0].support, -terms[0].matrix))
    region = make_region(rng.choice(sites, size=int(rng.integers(1, len(sites) + 1)), replace=False))
    return Interaction(terms, R=float(len(sites)), d=d), region


@settings(max_examples=80, deadline=None)
@given(interactions_in_region())
def test_hamiltonian_matches_sum_of_dense_embeddings(case):
    phi, region = case
    dim = phi.d ** len(region)
    inside = phi.terms_within(region)
    ref = np.zeros((dim, dim), dtype=complex)
    for t in inside:
        ref += dense_embed(t.matrix, t.support, region, phi.d)
    H = hamiltonian(phi, region).matrix
    assert H.format == "csr" and H.has_canonical_format
    real = not any(np.iscomplexobj(t.matrix) for t in inside)
    assert H.dtype == (np.float64 if real else np.complex128)
    assert H.nnz == np.count_nonzero(ref)
    assert np.abs(H.toarray() - ref).max() <= 1e-14 * max(1.0, float(np.abs(ref).max()))


def _whole(M, n, d=2):
    """M as the one term of an operator on the whole region of n sites."""
    return GlobalOperator(tuple(range(n)), d, [InteractionTerm(tuple(range(n)), M)])


def _ground_projector(H):
    """The kernel projector of H on its whole region, kept factored: P_AB of
    pair_overlap_norm."""
    n = len(H.region)
    return FactoredProjectorBlock(kernel_basis(H), tuple(range(n)), n, H.d)


class TestSpectralData:
    def test_zero_operator_gapless_trivial(self):
        H = _whole(np.zeros((4, 4)), 2)
        sd = spectral_data(H)
        assert sd.gapless_trivial
        assert sd.kernel_dim == 4

    def test_two_site_projector(self):
        phi = heisenberg_fm(chain_graph(2))
        sd = spectral_data(hamiltonian(phi, (0, 1)))
        assert sd.gap == pytest.approx(1.0)
        assert sd.kernel_dim == 3

    def test_matches_dense_oracle_eight_sites(self):
        phi = heisenberg_fm(chain_graph(8))
        sd = spectral_data(hamiltonian(phi, tuple(range(8))))
        oracle = dense_gap(dense_chain_hamiltonian(8, singlet_4x4()))
        assert sd.gap == pytest.approx(oracle, rel=1e-9)

    def test_dense_sparse_agreement(self, monkeypatch):
        phi = heisenberg_fm(chain_graph(8))
        H = hamiltonian(phi, tuple(range(8)))
        monkeypatch.setattr(operators, "DENSE_CAP", 4096)
        dense = spectral_data(H)
        monkeypatch.setattr(operators, "DENSE_CAP", 8)  # force the Lanczos path
        sparse = spectral_data(H)
        assert sparse.solver in ("sparse", "diagonal")
        assert sparse.gap == pytest.approx(dense.gap, rel=1e-9)
        assert sparse.kernel_dim == dense.kernel_dim

    def test_diagonal_fast_path(self, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        toy = commuting_toy(12)
        H = hamiltonian(toy, tuple(range(12)))
        sd = spectral_data(H)
        assert sd.solver == "diagonal"
        assert sd.gap == pytest.approx(1.0)


def _check_against_dense_oracle(phi, n):
    H = hamiltonian(phi, tuple(range(n)))
    Hd = dense_bond_hamiltonian(n, [(t.support[0], t.matrix) for t in phi.terms], phi.d)
    sd = spectral_data(H, with_basis=True)
    V = sd.kernel()
    assert np.linalg.norm(V @ V.conj().T - dense_ground_projector(Hd), 2) <= 1e-8
    assert sd.gap == pytest.approx(dense_gap(Hd), rel=1e-9)
    return sd


def _segment_chain(lengths, complex_terms=False, seed=1):
    """Open chain cut into decoupled segments of the given lengths: every bond
    inside a segment carries the singlet projector, or a Haar-random rank-1
    complex projector, and no bond joins two segments."""
    rng = np.random.default_rng(seed)
    terms = []
    start = 0
    for m in lengths:
        for i in range(start, start + m - 1):
            if complex_terms:
                z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                z /= np.linalg.norm(z)
                terms.append(InteractionTerm((i, i + 1), np.outer(z, z.conj())))
            else:
                terms.append(InteractionTerm((i, i + 1), singlet_4x4()))
        start += m
    return Interaction(terms, R=1.0, d=2)


CROSSOVER_REGIONS = {  # name -> (interaction, chain length, kernel dim, solver at DENSE_CAP)
    "fm9": (lambda: heisenberg_fm(chain_graph(9)), 9, 10, "dense"),
    "fm10": (lambda: heisenberg_fm(chain_graph(10)), 10, 11, "sparse"),
    "random10": (lambda: _segment_chain([10], complex_terms=True), 10, 11, "sparse"),
    # the grown kernel stays sparse up to MAX_KERNEL = 512 columns
    "kernel36": (lambda: _segment_chain([5, 5]), 10, 36, "sparse"),
    "kernel36-complex": (lambda: _segment_chain([5, 5], complex_terms=True), 10, 36, "sparse"),
    "kernel243": (lambda: _segment_chain([2] * 5), 10, 243, "sparse"),
    # a wider one goes to the dense solve up to 2 * DENSE_CAP
    "kernel768": (lambda: _segment_chain([2] + [1] * 8), 10, 768, "dense"),
    "qutrit729": (lambda: random_low_rank(chain_graph(6), 2, 3, d=3)[0], 6, 127, "sparse"),
}


class TestDenseCap:
    """The solver chosen on both sides of DENSE_CAP, against the dense oracles."""

    @pytest.mark.parametrize("name", list(CROSSOVER_REGIONS))
    def test_solver_and_results(self, name):
        model, n, kernel_dim, solver = CROSSOVER_REGIONS[name]
        sd = _check_against_dense_oracle(model(), n)
        assert (sd.kernel_dim, sd.solver) == (kernel_dim, solver)

    @pytest.mark.parametrize("dense_cap, solver", [(512, "dense"), (511, None), (0, None)])
    def test_wide_kernel_handover_up_to_twice_the_cap(self, dense_cap, solver, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", dense_cap)
        # one singlet bond on 10 sites: kernel 768 of dim 1024, wider than MAX_KERNEL
        phi = _segment_chain([2] + [1] * 8)
        if solver is None:
            with pytest.raises(EigensolverError, match="kernel larger than 512"):
                spectral_data(hamiltonian(phi, tuple(range(10))))
        else:
            sd = _check_against_dense_oracle(phi, 10)
            assert (sd.kernel_dim, sd.solver) == (768, solver)

    @pytest.mark.parametrize("dense_cap", [256, 255, 0])
    def test_kernel_below_max_kernel_stays_sparse(self, dense_cap, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", dense_cap)
        # kernel 30 of dim 512: no handover at any cap below the dimension
        sd = _check_against_dense_oracle(_segment_chain([5, 4]), 9)
        assert (sd.kernel_dim, sd.solver) == (30, "sparse")


class TestRegionSolveProperties:
    """Random frustration-free chains on both sides of DENSE_CAP against the oracles.

    Hypothesis runs many examples per test call, so DENSE_CAP is patched in
    the test body: a function-scoped fixture would fail its health check.
    """

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=3, max_value=7),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        dense_cap=st.sampled_from([8, 4096]),
    )
    def test_rank_one_qubit_chains(self, n, seed, dense_cap):
        phi, _ = random_low_rank(chain_graph(n), 1, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "DENSE_CAP", dense_cap)
            _check_against_dense_oracle(phi, n)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2 ** 16),
        dense_cap=st.sampled_from([8, 4096]),
    )
    def test_rank_two_qutrit_chains(self, n, seed, dense_cap):
        # rank-2 qubit bonds are generically frustrated; qutrit bonds are not
        phi, _ = random_low_rank(chain_graph(n), 2, seed, d=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "DENSE_CAP", dense_cap)
            _check_against_dense_oracle(phi, n)

    def test_complex_chain_above_dense_cap(self):
        n = 11
        phi, _ = random_low_rank(chain_graph(n), 1, seed=3)
        sd = _check_against_dense_oracle(phi, n)
        assert sd.solver == "sparse"


@st.composite
def grown_kernel_cases(draw):
    """A chain or a 2 x k grid with PSD terms on random one- and two-site
    supports (on the grid often non-contiguous factors), each annihilating
    one random product state, so the kernel is not empty; sometimes a site
    carries no term, and sometimes a positive definite term frustrates it."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        g = grid_graph(2, draw(st.integers(2, 4 if d == 2 else 2)))
    else:
        g = chain_graph(draw(st.integers(2, 8 if d == 2 else 5)))
    sites = list(g.ids)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_ = draw(st.booleans())

    def unit(shape):
        z = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0)
        return z / np.linalg.norm(z, axis=0)

    product = {v: unit(d) for v in sites}
    used = [v for v in sites if v != sites[-1]] if draw(st.booleans()) else sites
    terms = []
    for _ in range(draw(st.integers(1, 2 * len(sites)))):
        support = make_region(rng.choice(used, size=min(len(used), int(rng.integers(1, 3))), replace=False))
        phi_s = product[support[0]]
        for v in support[1:]:
            phi_s = np.kron(phi_s, product[v])
        rank = int(rng.integers(1, d ** len(support)))
        Z = unit((d ** len(support), rank))
        Q = np.linalg.qr(Z - np.outer(phi_s, phi_s.conj() @ Z))[0]
        terms.append(InteractionTerm(support, (Q * rng.uniform(0.5, 2.0, rank)) @ Q.conj().T))
    if draw(st.sampled_from([False, False, True])):
        A = unit((d, d))
        terms.append(InteractionTerm((used[0],), A @ A.conj().T + 0.1 * np.eye(d)))
    return Interaction(terms, R=float(len(sites)), d=d), make_region(sites)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grown_kernel_cases())
def test_grown_kernel_and_gap_match_dense_oracles(case):
    phi, region = case
    H = hamiltonian(phi, region)
    Hd = sum(dense_embed(t.matrix, t.support, region, phi.d) for t in phi.terms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "DENSE_CAP", 8)
        sd = spectral_data(H, with_basis=True)
    assert sd.solver == ("sparse" if H.dim > 8 else "dense")
    P = dense_ground_projector(Hd)
    assert sd.kernel_dim == round(np.trace(P).real)
    V = sd.basis
    assert np.linalg.norm(V @ V.conj().T - P, 2) <= 1e-8
    gap = dense_gap(Hd)
    assert (sd.gap is None) == (gap is None)
    if gap is not None:
        assert sd.gap == pytest.approx(gap, rel=1e-9)


class TestSolverFailures:
    def test_matfree_norm_raises_instead_of_estimating(self, monkeypatch):
        # 64 evenly spaced levels: two Lanczos steps cannot pass the check
        monkeypatch.setattr(_tensor, "LANCZOS_MAX_STEPS", 2)
        op = spla.aslinearoperator(np.diag(np.linspace(0.0, 1.0, 64)))
        with pytest.raises(EigensolverError, match="operator norm: .* after 2 Lanczos steps$"):
            matfree_norm(op)

    def test_sparse_gap_raises(self, monkeypatch):
        # two Lanczos steps cannot reach the residual check
        monkeypatch.setattr(_tensor, "LANCZOS_MAX_STEPS", 2)
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        H = hamiltonian(heisenberg_fm(chain_graph(8)), tuple(range(8)))
        with pytest.raises(EigensolverError, match="on the gap"):
            spectral_data(H)


@pytest.fixture
def gap_matvecs(monkeypatch):
    """Counts the products with H of the gap's Lanczos runs."""
    counts = {"gap": 0}
    real = operators.lanczos

    def counted(apply, *args, **kwargs):
        def product(x):
            counts["gap"] += 1
            return apply(x)

        return real(product, *args, **kwargs)

    monkeypatch.setattr(operators, "lanczos", counted)
    return counts


SPARSE_REGIONS = {  # name -> (interaction, chain length, projector form, gap matvecs)
    "fm11": (lambda: heisenberg_fm(chain_graph(11)), 11, False, 130),
    "fm12": (lambda: heisenberg_fm(chain_graph(12)), 12, False, 130),
    "fm13": (lambda: heisenberg_fm(chain_graph(13)), 13, False, 130),
    "fm13-projector-form": (lambda: heisenberg_fm(chain_graph(13)), 13, True, 130),
    "aklt8": (lambda: aklt_chain(8), 8, False, 130),
    # 257-265 products over the start seeds
    "random10": (lambda: _segment_chain([10], complex_terms=True), 10, False, 300),
}


class TestSparseGapSolve:
    @pytest.mark.parametrize("name", list(SPARSE_REGIONS))
    def test_gap_solves_bounded_at_every_start(self, name, gap_matvecs, monkeypatch):
        model, n, projector_form, max_matvecs = SPARSE_REGIONS[name]
        H = hamiltonian(model(), tuple(range(n)), projector_form=projector_form)
        gaps = []
        for seed in range(1, 11):
            monkeypatch.setattr(operators, "SOLVER_SEED", seed)
            gap_matvecs["gap"] = 0
            sd = spectral_data(H)
            assert sd.solver == "sparse"
            assert gap_matvecs["gap"] <= max_matvecs, (
                f"start seed {seed}: {gap_matvecs['gap']} gap matvecs"
            )
            gaps.append(sd.gap)
        assert max(gaps) - min(gaps) <= 1e-12 * min(gaps)
        if name.startswith("fm"):
            # the FM chain gap is 1 - cos(pi / n)
            assert gaps[0] == pytest.approx(1.0 - np.cos(np.pi / n), rel=1e-12)

    @pytest.mark.parametrize("name", ["fm11", "aklt8"])
    def test_step_cap_keeps_the_gap(self, name, gap_matvecs, monkeypatch):
        model, n, _, _ = SPARSE_REGIONS[name]
        H = hamiltonian(model(), tuple(range(n)))
        gap = spectral_data(H).gap
        if name.startswith("fm"):
            assert gap == pytest.approx(1.0 - np.cos(np.pi / n), rel=1e-12)
        # a cap at the products of the default run, which are at least its
        # steps, leaves the run and its gap as they were
        monkeypatch.setattr(_tensor, "LANCZOS_MAX_STEPS", gap_matvecs["gap"])
        assert spectral_data(H).gap == gap
        # a tiny cap stops the run there, with one product per formed Ritz vector
        monkeypatch.setattr(_tensor, "LANCZOS_MAX_STEPS", 16)
        gap_matvecs["gap"] = 0
        with pytest.raises(EigensolverError, match="above .* after 16 Lanczos steps$"):
            spectral_data(H)
        assert gap_matvecs["gap"] <= 16 + 2

    def test_clustered_gap_matches_dense_oracle(self, gap_matvecs):
        # Haar-random rank-1 complex projectors on a qubit chain n = 10, drawn
        # from default_rng([5, 1]): gap 0.00665 with the next level at 0.00686,
        # so the run is long and the Krylov basis loses the most orthogonality
        phi = _segment_chain([10], complex_terms=True, seed=[5, 1])
        sd = spectral_data(hamiltonian(phi, tuple(range(10))))
        assert (sd.kernel_dim, sd.solver) == (11, "sparse")
        # one run of more than 300 steps: at most one product in every
        # LANCZOS_CHECK_STEPS + 1 forms a Ritz vector (903 products with restarts)
        products, cols = gap_matvecs["gap"], _tensor.LANCZOS_CHECK_STEPS
        assert (products - 1) * cols > 300 * (cols + 1)
        assert products <= 420
        Hd = dense_bond_hamiltonian(10, [(t.support[0], t.matrix) for t in phi.terms])
        assert sd.gap == pytest.approx(dense_gap(Hd), rel=1e-10)

    def test_gap_ritz_residual_checked(self, perturbed_gap_ritz_vector, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        H = hamiltonian(heisenberg_fm(chain_graph(8)), tuple(range(8)))
        with pytest.raises(EigensolverError, match="Ritz residual"):
            spectral_data(H)

    def test_failed_residual_check_stops_at_the_cap(
        self, perturbed_gap_ritz_vector, gap_matvecs, monkeypatch
    ):
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        # no Ritz vector passes the check; the run goes on past dim 256 - 9
        # (no reorthogonalisation) and stops at LANCZOS_MAX_STEPS
        H = hamiltonian(heisenberg_fm(chain_graph(8)), tuple(range(8)))
        m = _tensor.LANCZOS_MAX_STEPS
        with pytest.raises(EigensolverError, match=f"above .* after {m} Lanczos steps$"):
            spectral_data(H)
        # a Ritz vector formed at most every LANCZOS_CHECK_STEPS steps, and at the cap
        assert gap_matvecs["gap"] <= m + m // _tensor.LANCZOS_CHECK_STEPS + 1

    def test_gap_is_read_from_h(self, gap_matvecs, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        # singlet projectors on bonds 0, 2, 4, 6: kernel 3^4 * 2^2, gap 1
        phi = _segment_chain([2, 2, 2, 2, 1, 1])
        sd = spectral_data(hamiltonian(phi, tuple(range(10))))
        assert (sd.solver, sd.kernel_dim) == ("sparse", 324)
        assert abs(sd.gap - 1.0) <= 1e-14
        # H has the levels 1..4 off its kernel: four steps span them, the
        # fourth beta is at the rounding level of the deflated recurrence
        # (an invariant Krylov space), and x comes from a partial block
        assert gap_matvecs["gap"] == 4 + 1

    def test_grown_kernel_makes_no_block_solves(self, monkeypatch):
        factored = []
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: factored.append(a))
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        # kernel 127 of dim 729
        phi, _ = random_low_rank(chain_graph(6), 2, 3, d=3)
        sd = _check_against_dense_oracle(phi, 6)
        assert (sd.kernel_dim, sd.solver) == (127, "sparse")
        # the kernel comes from the terms and the gap from products with H:
        # nothing is factored
        assert factored == []


def _shifted_fm(n, shift):
    """FM chain with `shift` added to the all-up level, which is in the kernel,
    as one term on the whole region."""
    shifted = hamiltonian(heisenberg_fm(chain_graph(n)), tuple(range(n))).to_dense()
    shifted[0, 0] += shift
    return _whole(shifted, n)


class TestNotPositiveSemidefinite:
    @pytest.mark.parametrize(
        "build, dense_cap",
        # H with one term on its whole region, on each side of the cap: the
        # term check refuses it before the solver is chosen
        [
            (lambda: _shifted_fm(6, -0.3), DENSE_CAP),
            (lambda: _whole(np.diag([-0.3, 0.0, 1.0, 1.0]), 2), DENSE_CAP),
            (lambda: _shifted_fm(6, -0.3), 8),
            (lambda: _shifted_fm(6, -1e-7), 8),  # a level just below minus the tolerance
        ],
        ids=["dense", "diagonal", "sparse-pivot", "sparse-shallow"],
    )
    def test_negative_level_is_interaction_error(self, build, dense_cap, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", dense_cap)
        with pytest.raises(InteractionError, match="not positive semidefinite"):
            spectral_data(build())

    @pytest.mark.parametrize("dense_cap", [DENSE_CAP, 8])
    def test_non_psd_term_is_interaction_error_on_both_sides(self, dense_cap, monkeypatch):
        monkeypatch.setattr(operators, "DENSE_CAP", dense_cap)
        # the singlet projector split into a non-PSD term and 0.3 on the same
        # bond: H is the PSD FM chain, but its terms are not all PSD
        shifted = singlet_4x4() - 0.3 * np.eye(4)
        terms = [InteractionTerm((0, 1), shifted), InteractionTerm((0, 1), 0.3 * np.eye(4))]
        terms += [InteractionTerm((i, i + 1), singlet_4x4()) for i in range(1, 5)]
        H = hamiltonian(Interaction(terms, R=1.0, d=2), tuple(range(6)))
        assert np.linalg.eigvalsh(H.to_dense())[0] >= -1e-12
        with pytest.raises(InteractionError, match="not positive semidefinite"):
            spectral_data(H)

    @pytest.mark.parametrize("solver", ["diagonal", "dense"])
    def test_levels_of_passing_terms_sum_below_the_tolerance(self, solver):
        # each term's lowest level -0.99e-10 is within PSD_TOL, so every term
        # passes the term check; summed on a common eigenvector they put a
        # level of H below minus the kernel tolerance 1e-9 (||H|| <= 1), which
        # only the solve's check of the levels catches
        if solver == "diagonal":  # twelve single-site terms diag(-0.99e-10, 1/12)
            h, sites, lowest = np.diag([-0.99e-10, 1 / 12]), list(range(12)), "-1.188e-09"
        else:  # eleven rotated terms on 9 sites: not diagonal, dim 512
            c, s = np.cos(0.3), np.sin(0.3)
            rot = np.array([[c, -s], [s, c]])
            h = rot @ np.diag([-0.99e-10, 1 / 11]) @ rot.T
            h, sites, lowest = (h + h.T) / 2, list(range(9)) + [0, 1], "-1.089e-09"
        terms = [InteractionTerm((i,), h) for i in sites]
        H = hamiltonian(Interaction(terms, R=0.0, d=2), tuple(range(max(sites) + 1)))
        assert (H.dim <= DENSE_CAP) == (solver == "dense")
        with pytest.raises(InteractionError, match=rf"not positive semidefinite \(lowest level {lowest}\)"):
            spectral_data(H)


class TestGroundProjector:
    def test_zero_operator_gives_identity(self):
        P = _ground_projector(_whole(np.zeros((4, 4)), 2))
        assert np.allclose(P.to_dense(), np.eye(4), atol=1e-12)

    def test_two_site_triplet(self):
        phi = heisenberg_fm(chain_graph(2))
        P = _ground_projector(hamiltonian(phi, (0, 1))).to_dense()
        assert np.trace(P) == pytest.approx(3.0)
        oracle = dense_ground_projector(dense_chain_hamiltonian(2, singlet_4x4()))
        assert np.allclose(P, oracle, atol=1e-10)

    def test_idempotent_hermitian_annihilates(self):
        phi = heisenberg_fm(chain_graph(4))
        H = hamiltonian(phi, tuple(range(4)))
        m = _ground_projector(H).to_dense()
        assert np.linalg.norm(m @ m - m, 2) <= 1e-10
        assert np.linalg.norm(m - m.conj().T, 2) <= 1e-12
        assert np.trace(m) == pytest.approx(5.0)
        Hd = H.to_dense()
        assert np.linalg.norm(Hd @ m, 2) <= 10 * 1e-9 * max(1.0, np.linalg.norm(Hd, 2))

    def test_not_frustration_free(self):
        # an empty kernel is bad input, not a solver failure
        with pytest.raises(InteractionError, match="not frustration-free"):
            kernel_basis(_whole(np.eye(2), 1))


class TestKernelBasis:
    def test_sparse_path_matches_dense(self, monkeypatch):
        phi = heisenberg_fm(chain_graph(8))
        H = hamiltonian(phi, tuple(range(8)))
        monkeypatch.setattr(operators, "DENSE_CAP", 4096)
        Vd = kernel_basis(H)
        monkeypatch.setattr(operators, "DENSE_CAP", 8)
        Vs = kernel_basis(H)
        assert Vd.shape[1] == Vs.shape[1] == 9
        Pd = Vd @ Vd.conj().T
        Ps = Vs @ Vs.conj().T
        assert np.linalg.norm(Pd - Ps, 2) <= 1e-8

    def test_diagonal_shortcut(self):
        toy = commuting_toy(10)
        H = hamiltonian(toy, tuple(range(10)))
        V = kernel_basis(H)
        P = (V @ V.conj().T)
        assert sp.issparse(V)
        Hd = H.to_dense()
        assert np.linalg.norm(Hd @ P.toarray(), 2) <= 1e-9


class TestCheckFrustrationFree:
    def test_fm_chain_always(self):
        for n in (2, 4, 6):
            phi = heisenberg_fm(chain_graph(n))
            assert check_frustration_free(hamiltonian(phi, tuple(range(n))))

    def test_identity_is_not(self):
        assert not check_frustration_free(_whole(np.eye(2), 1))

    def test_random_low_rank_verdicts(self):
        g = chain_graph(4)
        phi, _ = random_low_rank(g, 1, seed=5)
        H = hamiltonian(phi, tuple(range(4)))
        assert check_frustration_free(H) == (dense_gap(H.to_dense()) is not None and
                                             np.linalg.eigvalsh(H.to_dense())[0] <= 1e-9)

    def test_hereditary_under_term_removal(self):
        g = chain_graph(6)
        phi = heisenberg_fm(g)
        region = tuple(range(6))
        assert check_frustration_free(hamiltonian(phi, region))
        for drop in range(len(phi.terms)):
            sub = Interaction(
                [t for i, t in enumerate(phi.terms) if i != drop], R=phi.R, d=phi.d
            )
            H_sub = hamiltonian(sub, region)
            assert check_frustration_free(H_sub)
            full_kernel = spectral_data(hamiltonian(phi, region)).kernel_dim
            assert spectral_data(H_sub).kernel_dim >= full_kernel


class TestOperatorNorm:
    def test_projector(self):
        phi = heisenberg_fm(chain_graph(3))
        P = _ground_projector(hamiltonian(phi, (0, 1, 2)))
        assert matfree_norm(P) == pytest.approx(1.0, abs=1e-10)

    def test_zero(self):
        P = _ground_projector(hamiltonian(heisenberg_fm(chain_graph(3)), (0, 1, 2)))
        assert matfree_norm(Difference(P, P)) == 0.0

    def test_overlap_difference_matches_dense_svd(self):
        n = 6
        phi = heisenberg_fm(chain_graph(n))
        region = tuple(range(n))
        A, B = (0, 1, 2, 3), (2, 3, 4, 5)
        PA = dense_embed(
            dense_ground_projector(dense_chain_hamiltonian(4, singlet_4x4())), A, region
        )
        PB = dense_embed(
            dense_ground_projector(dense_chain_hamiltonian(4, singlet_4x4())), B, region
        )
        PY = dense_ground_projector(dense_chain_hamiltonian(n, singlet_4x4()))
        M = PA @ PB - PY
        # the matrix-free P_A P_B - P_Y, as pair_overlap_norm builds it
        P_A, P_B = (
            FactoredProjectorBlock(kernel_basis(hamiltonian(phi, X)), X, n, 2) for X in (A, B)
        )
        P_Y = _ground_projector(hamiltonian(phi, region))
        op = Difference(OperatorChain([P_A, P_B], 2 ** n), P_Y)
        assert matfree_norm(op) == pytest.approx(np.linalg.norm(M, 2), abs=1e-8)


class TestSandwich:
    def test_projector_terms_equality(self):
        phi = heisenberg_fm(chain_graph(6))
        rep = sandwich_check(phi, tuple(range(6)))
        assert rep.ok
        assert rep.gap_raw == pytest.approx(rep.gap_projected, rel=1e-9)

    def test_global_scaling(self):
        base = heisenberg_fm(chain_graph(6))
        scaled = Interaction(
            [InteractionTerm(t.support, 2.0 * t.matrix) for t in base.terms], R=1.0, d=2
        )
        rep = sandwich_check(scaled, tuple(range(6)))
        assert rep.ok
        assert rep.gap_raw == pytest.approx(2.0 * rep.gap_projected, rel=1e-9)

    def test_heterogeneous_spectra(self):
        rng = np.random.default_rng(21)
        terms = []
        for i in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            terms.append(
                InteractionTerm((i, i + 1), q @ np.diag([0.0, 0.5, 2.0, 1.0]) @ q.T)
            )
        rep = sandwich_check(Interaction(terms, R=1.0, d=2), tuple(range(6)))
        assert rep.ok


def test_tensor_factorization_for_disconnected_split():
    # no term crosses between {0..3} and {5..8}; P_{A u B} = P_A P_B
    phi = heisenberg_fm(chain_graph(9))
    A = (0, 1, 2, 3)
    B = (5, 6, 7, 8)
    region = make_region(A + B)
    V = kernel_basis(hamiltonian(phi, region, projector_form=True))
    P_AB = V @ V.conj().T
    PA = dense_embed(
        dense_ground_projector(dense_chain_hamiltonian(4, singlet_4x4())), A, region
    )
    PB = dense_embed(
        dense_ground_projector(dense_chain_hamiltonian(4, singlet_4x4())), B, region
    )
    assert np.linalg.norm(PA @ PB - P_AB, 2) <= 1e-10
