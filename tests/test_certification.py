from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert.certification import (
    GapSequence,
    ScalingHypothesis,
    certify,
    delta_bound_theoretical,
    fit_delta_bound,
    measure_delta_k,
    pair_overlap_norm,
    recursion_step,
    scaling_fit,
    threshold_test,
)
from gapcert.errors import CertificationError
from gapcert.lattice import chain_graph, side_length, split_pairs
from gapcert.models import commuting_toy, heisenberg_fm
from gapcert.operators import hamiltonian, spectral_data

from conftest import (
    dense_chain_hamiltonian,
    dense_embed,
    dense_ground_projector,
    singlet_4x4,
)


class TestRecursionStep:
    def test_large_s_limit(self):
        assert recursion_step(0.7, 0.0, 10 ** 9) == pytest.approx(0.7, rel=1e-8)

    def test_delta_one_kills(self):
        assert recursion_step(5.0, 1.0, 3) == 0.0

    def test_half_half(self):
        assert recursion_step(1.0, 0.5, 1) == pytest.approx(0.25)

    def test_input_validation(self):
        with pytest.raises(CertificationError):
            recursion_step(1.0, -0.1, 1)
        with pytest.raises(CertificationError):
            recursion_step(1.0, 0.5, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=50),
)
def test_recursion_monotonicity(delta_a, delta_b, s, s_extra):
    lo, hi = sorted((delta_a, delta_b))
    assert recursion_step(1.0, hi, s) <= recursion_step(1.0, lo, s) + 1e-15
    assert recursion_step(1.0, lo, s) <= recursion_step(1.0, lo, s + s_extra) + 1e-15
    assert recursion_step(0.5, lo, s) <= recursion_step(1.0, lo, s)


class TestPairOverlapNorm:
    def test_matches_dense_oracle(self):
        n = 10
        g = chain_graph(n)
        phi = heisenberg_fm(g)
        pair = split_pairs(tuple(range(n)), 6, 1, g)[0]
        sd = spectral_data(hamiltonian(phi, pair.Y, projector_form=True), with_basis=True)
        value = pair_overlap_norm(phi, pair, sd)
        region = tuple(range(n))
        PA = dense_embed(
            dense_ground_projector(dense_chain_hamiltonian(len(pair.A), singlet_4x4())),
            pair.A, region,
        )
        PB = dense_embed(
            dense_ground_projector(dense_chain_hamiltonian(len(pair.B), singlet_4x4())),
            pair.B, region,
        )
        PY = dense_ground_projector(dense_chain_hamiltonian(n, singlet_4x4()))
        oracle = np.linalg.norm(PA @ PB - PY, 2)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_commuting_toy_vanishes(self):
        g = chain_graph(10)
        toy = commuting_toy(g)
        pair = split_pairs(tuple(range(10)), 6, 1, g)[0]
        sd = spectral_data(hamiltonian(toy, pair.Y, projector_form=True), with_basis=True)
        assert pair_overlap_norm(toy, pair, sd) <= 1e-12


class TestMeasureDelta:
    def test_commuting_toy_zero(self):
        g = chain_graph(13)
        dm = measure_delta_k(commuting_toy(g), g, 6, 1)
        assert dm.value <= 1e-12
        assert dm.exhaustive

    def test_fm_chain_value_in_unit_interval(self):
        g = chain_graph(13)
        dm = measure_delta_k(heisenberg_fm(g), g, 6, 1)
        assert 0.0 < dm.value <= 1.0 + 1e-12
        # at this scale the only qualifying window is the full chain
        assert dm.regions_tested == 1
        assert dm.gap_min == pytest.approx(1.0 - np.cos(np.pi / 13.0), rel=1e-9)

    def test_skipped_windows_not_exhaustive(self):
        g = chain_graph(16)
        dm = measure_delta_k(commuting_toy(g), g, 6, 1, dim_cap=2 ** 13)
        assert dm.skipped_regions > 0
        assert not dm.exhaustive

    @pytest.mark.parametrize(
        "s, dim_cap, reason",
        [(1, 2 ** 10, "7 windows skipped above the dimension cap 1024, 0 for split errors"),
         (6, 2 ** 16, "0 windows skipped above the dimension cap 65536, 7 for split errors")],
        ids=["dim-cap", "split"],
    )
    def test_every_window_skipped_names_the_reasons(self, s, dim_cap, reason):
        g = chain_graph(16)
        with pytest.raises(CertificationError) as info:
            measure_delta_k(commuting_toy(g), g, 6, s, dim_cap=dim_cap)
        assert str(info.value) == f"no split pairs could be generated at scale k = 6: {reason}"


class TestCertify:
    def test_zero_deltas_infinite_s(self):
        seq = GapSequence.from_columns([1, 2, 3], [0.25] * 3, [float("inf")] * 3, [0.0] * 3)
        cert = certify(seq, 2.0)
        assert cert.lower_bound == pytest.approx(2.0 * 0.25)
        assert cert.certifiable

    def test_synthetic_product_matches_fractions(self):
        ks = list(range(2, 41))
        seq = GapSequence.from_columns(
            ks, [1.0] * len(ks), [k ** 2 for k in ks], [2.0 ** -k for k in ks]
        )
        cert = certify(seq, 1.0, include_tail=False)
        exact = Fraction(1)
        for k in ks:
            exact *= (1 - Fraction(1, 2 ** k)) / (1 + Fraction(1, k * k))
        assert abs(cert.finite_product - float(exact)) <= 1e-10
        assert cert.tail_estimate == 0.0

    def test_constant_delta_not_certifiable(self):
        ks = list(range(2, 20))
        seq = GapSequence.from_columns(ks, [1.0] * len(ks), [k ** 2 for k in ks], [0.5] * len(ks))
        cert = certify(seq, 1.0)
        assert not cert.certifiable
        assert cert.lower_bound == 0.0

    def test_delta_one_never_below(self):
        seq = GapSequence.from_columns([1, 2], [1.0, 1.0], [2, 2], [1.0, 1.0])
        cert = certify(seq, 1.0)
        assert not cert.certifiable
        assert cert.k0 is None

    def test_k0_selection_skips_early_failures(self):
        seq = GapSequence.from_columns(
            [1, 2, 3, 4], [1.0] * 4, [4] * 4, [1.0, 0.2, 0.1, 0.05]
        )
        cert = certify(seq, 1.0, include_tail=False)
        assert cert.k0 == 2
        assert len(cert.factors) == 3

    def test_tail_with_declared_rule(self):
        ks = [6, 7]
        seq = GapSequence.from_columns(ks, [1.0, 1.0], [1, 2], [0.0, 0.0])
        cert = certify(seq, 1.0, s_rule=(1.0, 1.25))
        assert cert.certifiable
        assert 0.0 < cert.lower_bound < cert.finite_product

    def test_soundness_never_overcertifies(self):
        # toy model: every region gap is 1; the certificate must stay below
        g = chain_graph(13)
        toy = commuting_toy(g)
        dm = measure_delta_k(toy, g, 6, 1)
        lam = min(dm.gap_min, 1.0)
        seq = GapSequence.from_columns([6], [lam], [1], [dm.value])
        cert = certify(seq, 1.0, s_rule=(1.0, 1.5))
        gaps = []
        for n in (4, 6, 8, 13):
            sd = spectral_data(hamiltonian(toy, tuple(range(n)), projector_form=True))
            gaps.append(sd.gap)
        assert cert.lower_bound <= min(gaps) + 1e-9
        assert cert.lower_bound > 0.0

    def test_empty_range_rejected(self):
        seq = GapSequence.from_columns([3], [1.0], [2], [0.1])
        with pytest.raises(CertificationError, match="empty k range"):
            certify(seq, 1.0, K_max=2)


class TestThreshold:
    def test_hypothesis_is_exactly_sqrt_c(self):
        for c, eps, D in [(2.0, 0.5, 1), (0.3, 1.0, 2), (5.0, 0.2, 3)]:
            rep = threshold_test(
                hypothesis=ScalingHypothesis(c, eps), D=D, k_range=range(1, 201)
            )
            assert rep.sqrt_c_deviation <= 1e-12
            assert rep.passed

    def test_constant_gap_passes(self):
        ks = np.arange(1, 200)
        ls = np.array([side_length(int(k), 1) for k in ks])
        rep = threshold_test(
            lambdas=np.full(len(ks), 0.5), ls=ls, ss=ks.astype(float) ** 2, ks=ks
        )
        assert rep.passed

    def test_cubic_decay_fails(self):
        ks = np.arange(1, 201)
        ls = np.array([side_length(int(k), 1) for k in ks])
        rep = threshold_test(lambdas=ls ** -3.0, ls=ls, ss=ks.astype(float) ** 2, ks=ks)
        assert not rep.passed
        assert rep.tail_min < 1e-12

    def test_root_test_consistency(self):
        # exp(-liminf v) < 1 iff the threshold test passes
        ks = np.arange(1, 101)
        ls = np.array([side_length(int(k), 1) for k in ks])
        passing = threshold_test(
            lambdas=np.full(len(ks), 0.5), ls=ls, ss=ks.astype(float) ** 2, ks=ks
        )
        failing = threshold_test(
            lambdas=ls ** -3.0, ls=ls, ss=ks.astype(float) ** 2, ks=ks
        )
        assert passing.root_test_value < 1.0 - 1e-12
        assert failing.root_test_value >= 1.0 - 1e-9


class TestDeltaBound:
    def test_zero_exponent_gives_c1(self):
        assert delta_bound_theoretical(1.0, 1e-12, 1e6, 3.0, 0.7) == pytest.approx(3.0)

    def test_fit_recovers_synthetic(self):
        xs = np.linspace(0.5, 6.0, 12)
        deltas = 3.0 * np.exp(-0.7 * xs)
        C1, C2 = fit_delta_bound(np.ones(12), xs, np.ones(12), deltas)
        assert C1 == pytest.approx(3.0, rel=0.01)
        assert C2 == pytest.approx(0.7, rel=0.01)

    def test_insufficient_data(self):
        with pytest.raises(CertificationError, match="insufficient data"):
            fit_delta_bound([1.0, 1.0], [1.0, 2.0], [1.0, 1.0], [0.1, 0.05])

    def test_fitted_curve_dominates_on_synthetic_holdout(self):
        xs = np.linspace(0.5, 6.0, 12)
        deltas = 2.0 * np.exp(-0.5 * xs)
        C1, C2 = fit_delta_bound(np.ones(12), xs, np.ones(12), deltas)
        hold = np.linspace(6.5, 9.0, 4)
        for x in hold:
            assert delta_bound_theoretical(1.0, x, 1.0, C1, C2) >= 2.0 * np.exp(-0.5 * x) * (1 - 1e-9)


class TestScalingFit:
    def test_exact_inverse_square(self):
        sizes = [4.0, 6.0, 8.0, 10.0]
        fit = scaling_fit(sizes, [s ** -2.0 for s in sizes])
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.classification == "inverse-square-compatible"

    def test_constant_is_gapped(self):
        fit = scaling_fit([4, 6, 8], [0.4, 0.4, 0.4])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.classification == "gapped"

    def test_excluded_regime_band(self):
        sizes = [4.0, 8.0, 16.0, 32.0]
        fit = scaling_fit(sizes, [s ** -1.0 for s in sizes])
        assert fit.classification == "slower-than-inverse-square (excluded regime)"

    def test_gapless_input_rejected(self):
        with pytest.raises(CertificationError, match="gapless at finite size"):
            scaling_fit([4, 6, 8], [0.1, 0.0, 0.1])

    def test_insufficient_points(self):
        with pytest.raises(CertificationError, match="insufficient data"):
            scaling_fit([4, 6], [0.1, 0.1])

    def test_fm_pipeline_exponent(self):
        sizes = list(range(4, 11))
        gaps = [
            spectral_data(hamiltonian(heisenberg_fm(chain_graph(n)), tuple(range(n)))).gap
            for n in sizes
        ]
        fit = scaling_fit(sizes, gaps)
        assert -2.3 <= fit.exponent <= -1.7
        assert fit.classification == "inverse-square-compatible"
