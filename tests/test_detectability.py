import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert._tensor import FactoredProjectorBlock, OperatorChain, matfree_norm
from gapcert.detectability import (
    ChebyshevStep,
    check_commuting,
    column_decomposition,
    conservative_degree_budget,
    dl_operator,
    f_star,
    f_sup,
    index_sets,
    layer_product,
    ma_mb_split,
    overlap_bound_check,
    printed_degree_budget,
    refined_dl_bound,
    smuggle_check,
    standard_dl_check,
)
from gapcert.errors import AdmissibilityError
from gapcert.lattice import SplitPair, chain_graph, make_region, split_pairs
from gapcert.models import commuting_toy, heisenberg_fm
from gapcert.operators import hamiltonian, kernel_basis, spectral_data

from conftest import dense_chain_hamiltonian, dense_ground_projector, overlap_check, singlet_4x4


def fm_setup(n, t, alpha=0):
    g = chain_graph(n)
    phi = heisenberg_fm(g)
    region = tuple(range(n))
    decomp = column_decomposition(phi, g, region, t, alpha=alpha)
    return g, phi, region, decomp


class TestIndexSets:
    def test_even_progression_small_t(self):
        even, odd = index_sets(2, (0.0, 30.0))
        assert even == [4, 16, 28]
        # the column at -2 covers [-5, 1], which meets the extent
        assert odd == [-2, 10, 22]

    def test_short_extent(self):
        # extent inside one even column; no odd column reaches it
        even, odd = index_sets(2, (3.5, 4.5))
        assert even == [4]
        assert odd == []

    def test_direct_enumeration_oracle(self):
        t, extent = 3, (0.0, 40.0)
        even, odd = index_sets(t, extent)
        for base, got in ((2, even), (5, odd)):
            expected = [
                (base + 6 * j) * t
                for j in range(-20, 20)
                if (base + 6 * j) * t - 2 * t + 1 <= extent[1]
                and (base + 6 * j) * t + 2 * t - 1 >= extent[0]
            ]
            assert got == expected

    def test_members_belong_to_progressions(self):
        even, odd = index_sets(2.5, (-7.0, 55.0))
        for m in even:
            assert (m / 2.5 - 2) % 6 == pytest.approx(0.0)
        for m in odd:
            assert (m / 2.5 - 5) % 6 == pytest.approx(0.0)


class TestColumnDecomposition:
    def test_columns_are_coordinate_slices(self):
        g, phi, region, decomp = fm_setup(12, 2)
        for m, members in decomp.columns.items():
            lo, hi = m - 3, m + 3
            expected = tuple(v for v in region if lo <= v <= hi)
            assert members == expected

    def test_empty_and_trivial_columns_pruned(self):
        g, phi, region, decomp = fm_setup(12, 2)
        assert all(decomp.columns[m] for m in decomp.even_indices + decomp.odd_indices)
        # pruned columns either have no vertices or no contained terms
        for m in decomp.pruned:
            lo, hi = m - 3, m + 3
            members = [v for v in region if lo <= v <= hi]
            assert len(members) <= 1

    def test_small_t_rejected(self):
        g = chain_graph(8)
        phi = heisenberg_fm(g)
        with pytest.raises(AdmissibilityError, match="below max"):
            column_decomposition(phi, g, tuple(range(8)), 1.0)

    def test_narrow_region_single_column_is_full_projector(self):
        # a region inside one column: Q equals the region's ground projector
        g = chain_graph(6)
        phi = heisenberg_fm(g)
        region = (1, 2, 3, 4)
        decomp = column_decomposition(phi, g, region, 2)
        m = decomp.even_indices[0]
        assert decomp.columns[m] == region
        q = decomp.projectors[m]
        P = dense_ground_projector(dense_chain_hamiltonian(4, singlet_4x4()))
        assert np.allclose(q.block_matrix(), P, atol=1e-10)


class TestCheckCommuting:
    def test_single_column_no_pairs(self):
        g, phi, region, decomp = fm_setup(8, 2)
        rep = check_commuting(decomp)
        assert rep.max_norm <= 1e-12

    def test_fm_chain_same_parity_commute(self):
        for n, t in ((12, 2), (14, 2), (16, 2), (14, 3)):
            _, _, _, decomp = fm_setup(n, t)
            rep = check_commuting(decomp)
            assert rep.max_norm <= 1e-12

    def test_adversarial_small_t_reports_nonzero(self):
        # t below the threshold can put same-parity columns in contact
        g = chain_graph(10)
        phi = heisenberg_fm(g)
        decomp = column_decomposition(
            phi, g, tuple(range(10)), 0.75, allow_small_t=True
        )
        rep = check_commuting(decomp)
        assert rep.max_norm >= 0.0  # reported, not asserted


class TestDLOperator:
    def test_single_column_equals_projector(self):
        g, phi, region, decomp = fm_setup(6, 4)
        dl = dl_operator(decomp)
        # only one nontrivial column at this size
        assert len(decomp.even_indices) + len(decomp.odd_indices) >= 1
        x = np.random.default_rng(0).standard_normal(decomp.dim)
        out = dl.matvec(x)
        for m in decomp.even_indices + decomp.odd_indices:
            pass  # composition checked against dense below
        dense = dl.to_dense()
        assert np.linalg.norm(dense @ x - out) <= 1e-10

    def test_norm_at_most_one(self):
        for n, t in ((10, 2), (12, 2)):
            _, _, _, decomp = fm_setup(n, t)
            dl = dl_operator(decomp)
            assert matfree_norm(dl) <= 1.0 + 1e-10

    def test_contracts_excited_space(self):
        g, phi, region, decomp = fm_setup(12, 2)
        dl = dl_operator(decomp)
        H = hamiltonian(phi, region, projector_form=True)
        V = kernel_basis(H)
        P_perp = FactoredProjectorBlock(V, tuple(range(12)), 12, 2, complement=True)
        val = matfree_norm(OperatorChain(dl.factors + [P_perp], decomp.dim))
        assert val < 1.0

    def test_matches_dense_composition(self):
        g, phi, region, decomp = fm_setup(10, 2)
        dl = dl_operator(decomp)
        dense = np.eye(decomp.dim)
        for m in decomp.even_indices:
            dense = dense @ decomp.projectors[m].to_dense()
        for m in decomp.odd_indices:
            dense = dense @ decomp.projectors[m].to_dense()
        assert np.linalg.norm(dl.to_dense() - dense, 2) <= 1e-10


class TestLayerProduct:
    def test_commuting_single_layer_projector(self):
        # terms on every second edge commute and form one layer
        g = chain_graph(6)
        phi = heisenberg_fm(g)
        from gapcert.interaction import Interaction

        sparse_phi = Interaction(
            [t for t in phi.terms if t.support[0] % 2 == 0], R=1.0, d=2
        )
        T = layer_product(sparse_phi, tuple(range(6)))
        assert T.L == 1
        Td = T.to_dense()
        assert np.linalg.norm(Td @ Td - Td, 2) <= 1e-10
        assert np.linalg.norm(Td - Td.conj().T, 2) <= 1e-12

    def test_fm_chain_two_layers_norm(self):
        g = chain_graph(8)
        phi = heisenberg_fm(g)
        T = layer_product(phi, tuple(range(8)))
        assert T.L == 2
        assert matfree_norm(OperatorChain(T.factors, T.dim)) <= 1.0 + 1e-10

    def test_empty_region_is_identity(self):
        from gapcert.interaction import Interaction

        phi = heisenberg_fm(chain_graph(4))
        T = layer_product(phi, (0,))  # no 2-site term fits
        assert T.dim == 2
        assert np.allclose(T.to_dense(), np.eye(2))

    def test_matches_dense_product(self):
        g = chain_graph(8)
        phi = heisenberg_fm(g)
        T = layer_product(phi, tuple(range(8)))
        dim = 2 ** 8
        dense = np.eye(dim)
        # T = T_2 T_1: layer 1 applied first
        for beta in range(T.L - 1, -1, -1):
            for f in T.layer_factors[beta]:
                dense = dense @ f.to_dense()
        x = np.random.default_rng(1).standard_normal(dim)
        assert np.linalg.norm(T.matvec(x) - dense @ x) <= 1e-10


class TestStandardDL:
    def test_commuting_model_annihilates(self):
        g = chain_graph(10)
        toy = commuting_toy(g)
        region = tuple(range(10))
        T = layer_product(toy, region)
        V = kernel_basis(hamiltonian(toy, region))
        P_perp = FactoredProjectorBlock(V, tuple(range(10)), 10, 2, complement=True)
        rep = standard_dl_check(T, P_perp, 1.0, 0)
        assert rep.g_flagged and rep.g_used == 1
        assert rep.norm_sq <= 1e-20
        assert rep.ok

    def test_tiny_gap_is_trivially_satisfied(self):
        g = chain_graph(6)
        phi = heisenberg_fm(g)
        region = tuple(range(6))
        T = layer_product(phi, region)
        V = kernel_basis(hamiltonian(phi, region, projector_form=True))
        P_perp = FactoredProjectorBlock(V, tuple(range(6)), 6, 2, complement=True)
        rep = standard_dl_check(T, P_perp, 1e-9, 2)
        assert rep.bound > 1.0 - 1e-8
        assert rep.ok

    @pytest.mark.parametrize("n", [8, 10])
    def test_fm_chain_inequality(self, n):
        g = chain_graph(n)
        phi = heisenberg_fm(g)
        region = tuple(range(n))
        H = hamiltonian(phi, region, projector_form=True)
        lam = spectral_data(H).gap
        T = layer_product(phi, region)
        V = kernel_basis(H)
        P_perp = FactoredProjectorBlock(V, tuple(range(n)), n, 2, complement=True)
        rep = standard_dl_check(T, P_perp, lam, 2)
        assert rep.ok
        assert rep.norm_sq < rep.bound  # strictly below at these sizes


class TestChebyshevStep:
    def test_value_at_zero_exact(self):
        for q, gamma in [(1, 0.5), (7, 0.123), (30, 0.9), (13, 0.01)]:
            assert ChebyshevStep(q, gamma)(0.0) == 1.0

    def test_degree_one_closed_form(self):
        p = ChebyshevStep(1, 0.5)
        for x in np.linspace(-0.5, 1.5, 11):
            assert p(x) == pytest.approx(1.0 - 2.0 * x / 1.5, abs=1e-12)

    def test_envelope_on_decay_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            q = int(rng.integers(1, 31))
            gamma = float(rng.uniform(0.01, 0.99))
            x = float(rng.uniform(gamma, 1.0))
            p = ChebyshevStep(q, gamma)
            assert abs(p(x)) <= p.envelope() + 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChebyshevStep(0, 0.5)
        with pytest.raises(ValueError):
            ChebyshevStep(2, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_step_envelope_property(q, gamma, frac):
    x = gamma + frac * (1.0 - gamma)
    p = ChebyshevStep(q, gamma)
    assert abs(p(x)) <= 2.0 * math.exp(-2.0 * q * math.sqrt(gamma)) + 1e-12


class TestFStar:
    def test_point_interval(self):
        p = ChebyshevStep(3, 0.25)
        assert f_star(p, 0.0) == abs(p(1.0))

    def test_envelope_at_full_decay_interval(self):
        for q, gamma in [(2, 0.3), (5, 0.6)]:
            p = ChebyshevStep(q, gamma)
            assert f_star(p, 1.0 - gamma) <= p.envelope()

    def test_interior_root_found(self):
        # degree-1 step has its root at x = (1+gamma)/2 inside [0.5, 1]
        assert f_star(ChebyshevStep(1, 0.5), 0.5) <= 1e-9

    def test_sign_change_is_exact_zero(self):
        # a continuous F that changes sign on [0.1, 1] has a root there
        assert f_star(ChebyshevStep(2, 0.3), 0.9) == 0.0

    def test_sup_dominates_inf(self):
        p = ChebyshevStep(4, 0.2)
        for eps in (0.1, 0.5, 0.9):
            assert f_sup(p, eps) >= f_star(p, eps)


class TestSmuggle:
    def test_degree_zero_identity(self):
        _, phi, region, decomp = fm_setup(10, 4)
        T = layer_product(phi, region)
        rep = smuggle_check(decomp, T, [1.0], c_gamma=1.0)
        assert rep.residual <= 1e-12

    def test_degree_one_polynomials(self):
        _, phi, region, decomp = fm_setup(10, 4)
        T = layer_product(phi, region)
        lam = spectral_data(hamiltonian(phi, region, projector_form=True)).gap
        for F in ([1.0, -1.0], ChebyshevStep(1, lam / (lam + 4.0))):
            rep = smuggle_check(decomp, T, F, c_gamma=1.0)
            assert rep.residual <= 1e-8

    def test_degree_two_at_wider_columns(self):
        _, phi, region, decomp = fm_setup(12, 6)
        T = layer_product(phi, region)
        rep = smuggle_check(decomp, T, [1.0, -2.0, 1.0], c_gamma=1.0)
        assert rep.budget_printed == 2
        assert rep.residual <= 1e-8

    def test_budget_refusal(self):
        _, phi, region, decomp = fm_setup(10, 4)
        T = layer_product(phi, region)
        with pytest.raises(AdmissibilityError, match="degree exceeds smuggling budget"):
            smuggle_check(decomp, T, [1.0, 0.0, -1.0], c_gamma=1.0)

    def test_f_zero_normalization_required(self):
        _, phi, region, decomp = fm_setup(10, 4)
        T = layer_product(phi, region)
        with pytest.raises(ValueError, match="F\\(0\\)"):
            smuggle_check(decomp, T, [0.5, 0.5], c_gamma=1.0)

    def test_budgets(self):
        # printed vs conservative support-propagation budgets, L = 2, c = R = 1
        assert printed_degree_budget(4, 1.0, 2, 1.0) == 1
        assert conservative_degree_budget(4, 1.0, 2, 1.0) == 1
        assert printed_degree_budget(3, 1.0, 2, 1.0) == 1
        assert conservative_degree_budget(3, 1.0, 2, 1.0) == 0
        assert printed_degree_budget(6, 1.0, 2, 1.0) == 2
        assert conservative_degree_budget(6, 1.0, 2, 1.0) == 2

    def test_single_layer_rejected(self):
        with pytest.raises(AdmissibilityError, match="single layer"):
            printed_degree_budget(4, 1.0, 1, 1.0)


class TestRefinedBound:
    def test_vacuous_at_small_t(self):
        assert refined_dl_bound(2, 0.03, 2, 2, 1.0, 1.0) >= 2.0

    def test_two_over_e_calibration(self):
        lam, g_, L, C, R = 0.25, 2, 2, 1.0, 1.0
        t = C * (L - 1) * R * (2.0 + 1.0 / math.sqrt(lam / (1 + g_ * g_)))
        assert refined_dl_bound(t, lam, L, g_, C, R) == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_single_layer_flagged(self):
        with pytest.raises(AdmissibilityError, match="single layer"):
            refined_dl_bound(4, 0.5, 1, 1, 1.0, 1.0)

    def test_fm_numeric_bound_holds(self):
        # commuting toy has gap 1, so the bound bites even at moderate t
        g = chain_graph(12)
        toy = commuting_toy(g)
        region = tuple(range(12))
        decomp = column_decomposition(toy, g, region, 4)
        dl = dl_operator(decomp)
        V = kernel_basis(hamiltonian(toy, region))
        P_perp = FactoredProjectorBlock(V, tuple(range(12)), 12, 2, complement=True)
        val = matfree_norm(OperatorChain(dl.factors + [P_perp], decomp.dim))
        bound = refined_dl_bound(4, 1.0, 2, 1, 1.0, 1.0)
        assert bound < 1.0
        assert val <= bound + 1e-9


class TestMaMbSplit:
    def test_thin_exclusive_parts(self):
        n = 20
        g = chain_graph(n)
        toy = commuting_toy(g)
        decomp = column_decomposition(toy, g, tuple(range(n)), 2)
        pair = SplitPair(
            make_region(range(0, 19)), make_region(range(1, 20)),
            make_region(range(n)), 0, 18, (1.0, 18.0),
        )
        split = ma_mb_split(decomp, pair, g)
        assert split.product_residual <= 1e-12
        assert set(split.support_A) <= set(pair.A)
        assert set(split.support_B) <= set(pair.B)

    def test_all_columns_inside_overlap_gives_identity_ma(self):
        # a hole at vertex 1 prunes the boundary column, so no kept column
        # meets A-only and M_A degenerates to the identity (M_B = DL)
        g = chain_graph(20)
        toy = commuting_toy(g)
        region = make_region([0] + list(range(2, 20)))
        decomp = column_decomposition(toy, g, region, 2)
        A = make_region([0] + list(range(2, 19)))
        B = make_region(range(2, 20))
        pair = SplitPair(A, B, region, 0, 19, (2.0, 18.0))
        split = ma_mb_split(decomp, pair, g)
        assert split.a_indices == []
        assert split.b_indices == decomp.even_indices + decomp.odd_indices
        assert split.product_residual <= 1e-12

    def test_wide_overlap_identity_fm(self):
        n = 20
        g = chain_graph(n)
        phi = heisenberg_fm(g)
        decomp = column_decomposition(phi, g, tuple(range(n)), 2)
        pair = SplitPair(
            make_region(range(0, 19)), make_region(range(1, 20)),
            make_region(range(n)), 0, 18, (1.0, 18.0),
        )
        split = ma_mb_split(decomp, pair, g)
        assert split.product_residual <= 1e-12
        assert set(split.support_A) <= set(pair.A)
        assert set(split.support_B) <= set(pair.B)

    def test_guard_on_small_separation(self):
        n = 20
        g = chain_graph(n)
        toy = commuting_toy(g)
        decomp = column_decomposition(toy, g, tuple(range(n)), 2)
        pair = SplitPair(
            make_region(range(0, 12)), make_region(range(8, 20)),
            make_region(range(n)), 0, 4, (8.0, 11.0),
        )
        with pytest.raises(AdmissibilityError, match="not admissible"):
            ma_mb_split(decomp, pair, g)


class TestOverlapBound:
    def test_disconnected_split_has_zero_lhs(self):
        # a hole at vertex 6 keeps every term inside A or inside B, so the
        # ground projector tensor-factorizes and the overlap norm vanishes
        g = chain_graph(14)
        toy = commuting_toy(g)
        A = make_region(range(0, 6))
        B = make_region(range(7, 14))
        pair = SplitPair(A, B, make_region(list(A) + list(B)), 0, 2, (5.5, 6.5))
        rep = overlap_check(toy, g, pair, 2)
        assert rep.lhs <= 1e-10
        assert rep.lhs_le_mid

    def test_fm_chain_chain_of_inequalities(self):
        g = chain_graph(12)
        phi = heisenberg_fm(g)
        pair = split_pairs(tuple(range(12)), 6, 1, g)[0]
        rep = overlap_check(phi, g, pair, 2)
        assert rep.lhs_le_mid
        assert rep.ok

    def test_commuting_toy_decays(self):
        g = chain_graph(12)
        toy = commuting_toy(g)
        pair = split_pairs(tuple(range(12)), 6, 1, g)[0]
        rep = overlap_check(toy, g, pair, 2)
        assert rep.lhs <= 1e-6
        assert rep.dl_perp <= 1e-10
        assert rep.ok

    def test_absorption_identities_at_wide_separation(self):
        # admissible regrouping: P_A = P_A M_A and P_A M_B = P_A DL(t)
        n = 20
        g = chain_graph(n)
        toy = commuting_toy(g)
        pair = SplitPair(
            make_region(range(0, 19)), make_region(range(1, 20)),
            make_region(range(n)), 0, 18, (1.0, 18.0),
        )
        rep = overlap_check(toy, g, pair, 2)
        assert rep.admissible
        assert rep.absorption_a <= 1e-10
        assert rep.absorption_dl <= 1e-10
        assert rep.ok

    def test_decomposition_of_another_region_rejected(self):
        g = chain_graph(12)
        phi = heisenberg_fm(g)
        pair = split_pairs(tuple(range(12)), 6, 1, g)[0]
        decomp = column_decomposition(phi, g, tuple(range(11)), 2)
        sd = spectral_data(hamiltonian(phi, pair.Y, projector_form=True), with_basis=True)
        with pytest.raises(ValueError, match="not the column decomposition"):
            overlap_bound_check(decomp, pair, g, sd, 0.0, None)

    def test_decomposition_along_another_axis_rejected(self):
        from gapcert.lattice import grid_graph

        g = grid_graph(2, 4)
        phi = heisenberg_fm(g)
        region = tuple(g.ids)
        pair = split_pairs(region, 11, 1, g)[0]
        decomp = column_decomposition(phi, g, region, 2, alpha=1 - pair.alpha)
        sd = spectral_data(hamiltonian(phi, region, projector_form=True), with_basis=True)
        with pytest.raises(ValueError, match="not the column decomposition"):
            overlap_bound_check(decomp, pair, g, sd, 0.0, None)


class TestBeyondChains:
    def test_2d_strip_columns_and_contraction(self):
        # coarse-grain a 2x6 ferromagnet along its long axis
        from gapcert.lattice import grid_graph

        g = grid_graph(2, 6)
        phi = heisenberg_fm(g)
        region = tuple(g.ids)
        decomp = column_decomposition(phi, g, region, 2, alpha=1)
        for m, members in decomp.columns.items():
            lo, hi = m - 3, m + 3
            expected = make_region(
                v for v in region if lo - 1e-9 <= g.coord(v)[1] <= hi + 1e-9
            )
            assert members == expected
        assert check_commuting(decomp).max_norm <= 1e-12
        dl = dl_operator(decomp)
        assert matfree_norm(dl) <= 1.0 + 1e-10
        H = hamiltonian(phi, region, projector_form=True)
        V = kernel_basis(H)
        P_perp = FactoredProjectorBlock(V, tuple(range(12)), 12, 2, complement=True)
        T = layer_product(phi, region)
        from gapcert.interaction import commutation_degree

        lam = min(spectral_data(H).gap, 1.0)
        rep = standard_dl_check(T, P_perp, lam, commutation_degree(phi))
        assert rep.ok

    def test_non_integer_coarse_graining(self):
        g = chain_graph(12)
        phi = heisenberg_fm(g)
        decomp = column_decomposition(phi, g, tuple(range(12)), 2.5)
        assert set(decomp.even_indices + decomp.odd_indices) == {5, -2.5, 12.5}
        assert check_commuting(decomp).max_norm <= 1e-12

    def test_complex_low_rank_model_through_dl_path(self):
        from gapcert.models import random_low_rank

        g = chain_graph(10)
        phi, _ = random_low_rank(g, 1, seed=42)
        region = tuple(range(10))
        decomp = column_decomposition(phi, g, region, 4)
        assert check_commuting(decomp).max_norm <= 1e-12
        T = layer_product(phi, region)
        rep = smuggle_check(decomp, T, [1.0, -1.0], c_gamma=1.0)
        assert rep.residual <= 1e-8
        H = hamiltonian(phi, region, projector_form=True)
        sd = spectral_data(H)
        V = kernel_basis(H)
        P_perp = FactoredProjectorBlock(V, tuple(range(10)), 10, 2, complement=True)
        from gapcert.interaction import commutation_degree

        drep = standard_dl_check(T, P_perp, min(sd.gap, 1.0), commutation_degree(phi))
        assert drep.ok


def test_pperp_inf_variant_on_commuting_model():
    # the printed contraction comparison with the infimum functional holds
    # whenever the layer product annihilates the excited space exactly
    g = chain_graph(10)
    toy = commuting_toy(g)
    region = tuple(range(10))
    decomp = column_decomposition(toy, g, region, 4)
    dl = dl_operator(decomp)
    H = hamiltonian(toy, region)
    V = kernel_basis(H)
    P_perp = FactoredProjectorBlock(V, tuple(range(10)), 10, 2, complement=True)
    dl_perp = matfree_norm(OperatorChain(dl.factors + [P_perp], decomp.dim))
    T = layer_product(toy, region)
    tp = matfree_norm(OperatorChain(T.factors + [P_perp], T.dim))
    eps = tp * tp
    best = min(
        f_star(ChebyshevStep(q, 0.5), eps) for q in (1, 2)
    )
    assert dl_perp <= best + 1e-9


def _dense_spectral_norm(M):
    # a diagonal matrix's spectral norm is its largest |entry|; the SVD of the
    # 4096-dimensional toy product would take about a minute
    if np.count_nonzero(M) == np.count_nonzero(np.diagonal(M)):
        return float(np.abs(np.diagonal(M)).max())
    return float(np.linalg.norm(M, 2))


class TestGridSupports:
    """dl-check on 2D grids, whose columns and bonds sit on non-adjacent tensor
    factors, and on chains, whose factors are contiguous."""

    @pytest.mark.parametrize(
        "model, grid, alpha, diagonal",
        [
            ("commuting_toy", "2x5", "0", True),
            ("commuting_toy", "2x5", "1", True),
            ("commuting_toy", "3x4", "1", True),
            ("heisenberg_fm", "2x3", "0", False),
            ("heisenberg_fm", "2x3", "1", False),
        ],
    )
    def test_dl_norms_match_materialized_chain(
        self, model, grid, alpha, diagonal, monkeypatch, tmp_path, capsys
    ):
        argv = ["--model", model, "--grid", grid, "--t", "2", "--alpha", alpha]
        _check_dl_norms(argv, diagonal, alpha == "1", monkeypatch, tmp_path)

    def test_qutrit_chain_dl_norms_match_materialized_chain(self, monkeypatch, tmp_path):
        # d = 3, 3^6 = 729, non-diagonal factors on contiguous runs
        argv = ["--model", "aklt", "--length", "6", "--t", "2"]
        _check_dl_norms(argv, False, False, monkeypatch, tmp_path)

    def test_view_and_front_paths_agree(self, tmp_path):
        # --alpha 0 puts each column on contiguous factors (applied on a view of
        # the vector), --alpha 1 on non-adjacent ones (moved to the front)
        from gapcert.cli import main

        payloads = []
        for alpha in ("0", "1"):
            js = tmp_path / f"dl{alpha}.json"
            argv = ["dl-check", "--model", "heisenberg_fm", "--grid", "3x3", "--t", "2"]
            assert main(argv + ["--alpha", alpha, "--out-json", str(js)]) == 0
            payloads.append(json.loads(js.read_text()))
        numbers = [_json_numbers({k: v for k, v in p.items() if k != "columns"}) for p in payloads]
        assert len(numbers[0]) == len(numbers[1]) > 0
        assert np.allclose(numbers[0], numbers[1], rtol=0.0, atol=1e-12)
        assert [c["ok"] for c in payloads[0]["checks"]] == [c["ok"] for c in payloads[1]["checks"]]


def _json_numbers(value) -> list[float]:
    """Every number of a JSON value, those written inside strings included, in order."""
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _json_numbers(value[k])]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    if isinstance(value, str):
        return [float(x) for x in re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", value)]
    if isinstance(value, bool) or value is None:
        return []
    return [float(value)]


def _check_dl_norms(argv, diagonal, non_adjacent, monkeypatch, tmp_path):
    """Run dl-check and compare ||DL(t)|| and ||DL(t) P_perp|| with the dense norms."""
    from gapcert import cli, detectability
    from gapcert.cli import main

    normed = []
    real = cli.matfree_norm

    def recording(module):
        def norm(op):
            value = real(op)
            normed.append((module, op, value))
            return value

        return norm

    # the battery calls the cli module's matfree_norm once, for ||DL(t)||;
    # the next norm is ||DL(t) P_perp||, from detectability.dl_perp_norm
    monkeypatch.setattr(cli, "matfree_norm", recording("cli"))
    monkeypatch.setattr(detectability, "matfree_norm", recording("detectability"))
    js = tmp_path / "dl.json"
    assert main(["dl-check"] + argv + ["--out-json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert all(c["ok"] for c in payload["checks"])
    modules = [m for m, _, _ in normed]
    assert modules.count("cli") == 1
    i = modules.index("cli")
    (_, dl, dl_norm), (_, dl_p, dl_perp) = normed[i:i + 2]
    assert dl_p.factors[:-1] == dl.factors
    assert payload["dl_perp"] == dl_perp
    assert dl.diagonal == dl_p.diagonal == diagonal
    positions = [f.positions for f in dl.factors]
    assert any(np.any(np.diff(p) > 1) for p in positions) == non_adjacent
    assert abs(dl_norm - _dense_spectral_norm(dl.to_dense())) <= 1e-10
    assert abs(dl_perp - _dense_spectral_norm(dl_p.to_dense())) <= 1e-10
    if diagonal:
        assert (dl_norm, dl_perp) == (1.0, 0.0)
