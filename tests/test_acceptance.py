"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np

from gapcert import operators
from gapcert._tensor import FactoredProjectorBlock
from gapcert.certification import (
    GapSequence,
    ScalingHypothesis,
    certify,
    measure_delta_k,
    scaling_fit,
    threshold_test,
)
from gapcert.detectability import (
    ChebyshevStep,
    check_commuting,
    column_decomposition,
    layer_product,
    smuggle_check,
    standard_dl_check,
)
from gapcert.interaction import Interaction, InteractionTerm, commutation_degree
from gapcert.lattice import (
    RectangleFamily,
    chain_graph,
    grid_graph,
    projected_coords,
    rectangle_members,
    region_distance,
    side_length,
    split_pairs,
)
from gapcert.models import commuting_toy, heisenberg_fm, spin_wave_upper_bound
from gapcert.operators import hamiltonian, kernel_basis, sandwich_check, spectral_data

from conftest import dense_chain_hamiltonian, dense_gap, overlap_check, singlet_4x4


def report(num: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_inverse_square_scaling():
    t0 = time.time()
    sizes = list(range(4, 13))
    rel_errs = []
    swb_ok = True
    gaps = []
    for n in sizes:
        sd = spectral_data(hamiltonian(heisenberg_fm(chain_graph(n)), tuple(range(n))))
        oracle = dense_gap(dense_chain_hamiltonian(n, singlet_4x4()))
        rel_errs.append(abs(sd.gap - oracle) / oracle)
        gaps.append(sd.gap)
        if spin_wave_upper_bound(n) < sd.gap - 1e-10:
            swb_ok = False
    fit = scaling_fit(sizes, gaps)
    elapsed = time.time() - t0
    ok = (
        max(rel_errs) <= 1e-9
        and -2.3 <= fit.exponent <= -1.7
        and swb_ok
        and elapsed < 180.0
    )
    report(
        1, ok,
        f"gap rel err {max(rel_errs):.2e}, exponent {fit.exponent:.3f}, "
        f"spin-wave bound holds: {swb_ok}",
        t0,
    )


def test_criterion_2_gap_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = np.inf
    for trial in range(10):
        terms = []
        for i in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            evals = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 3.0, size=3))])
            terms.append(InteractionTerm((i, i + 1), q @ np.diag(evals) @ q.T))
        rep = sandwich_check(Interaction(terms, R=1.0, d=2), tuple(range(6)))
        worst = min(worst, rep.slack_lower, rep.slack_upper)
        if not rep.ok:
            break
    report(2, worst >= -1e-9, f"10 randomized instances, worst slack {worst:.3e}", t0)


def test_criterion_3_chebyshev_step():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_excess = -np.inf
    worst_unit = 0.0
    for _ in range(1000):
        q = int(rng.integers(1, 31))
        gamma = float(rng.uniform(0.01, 0.99))
        x = float(rng.uniform(gamma, 1.0))
        p = ChebyshevStep(q, gamma)
        worst_excess = max(
            worst_excess, abs(p(x)) - 2.0 * math.exp(-2.0 * q * math.sqrt(gamma))
        )
        worst_unit = max(worst_unit, abs(p(0.0) - 1.0))
    elapsed = time.time() - t0
    ok = worst_excess <= 1e-12 and worst_unit <= 1e-12 and elapsed < 5.0
    report(
        3, ok,
        f"1000 samples, worst envelope excess {worst_excess:.2e}, "
        f"|Step(0)-1| max {worst_unit:.2e}, {elapsed:.2f}s",
        t0,
    )


def test_criterion_4_smuggling_identity(monkeypatch):
    monkeypatch.setattr(operators, "DENSE_CAP", 8)
    t0 = time.time()
    n, t = 14, 4
    g = chain_graph(n)
    phi = heisenberg_fm(g)
    region = tuple(range(n))
    decomp = column_decomposition(phi, g, region, t)
    T = layer_product(phi, region)
    lam = spectral_data(hamiltonian(phi, region, projector_form=True)).gap
    gamma = lam / (lam + 4.0)
    residuals = {}
    for label, F in (("1", [1.0]), ("1-x", [1.0, -1.0]), ("step", ChebyshevStep(1, gamma))):
        rep = smuggle_check(decomp, T, F, c_gamma=1.0)
        assert rep.budget_printed >= 1
        residuals[label] = rep.residual
    elapsed = time.time() - t0
    ok = max(residuals.values()) <= 1e-8 and elapsed < 120.0
    report(
        4, ok,
        f"14-site chain t={t}, residuals {', '.join(f'{k}={v:.2e}' for k, v in residuals.items())}, "
        f"{elapsed:.1f}s",
        t0,
    )


def test_criterion_5_column_commutation():
    t0 = time.time()
    worst = 0.0
    tested = 0
    for n, t in ((12, 2), (14, 2), (16, 2), (12, 3), (14, 3)):
        g = chain_graph(n)
        phi = heisenberg_fm(g)
        assert t >= max(2.0, g.c_gamma * phi.R)
        decomp = column_decomposition(phi, g, tuple(range(n)), t)
        rep = check_commuting(decomp)
        worst = max(worst, rep.max_norm)
        tested += len(rep.pairs)
    report(5, worst <= 1e-12, f"{tested} same-parity pairs, max commutator {worst:.2e}", t0)


def test_criterion_6_standard_dl_inequality():
    t0 = time.time()
    violations = 0
    details = []
    for model, make, g_expected in (
        ("fm", heisenberg_fm, 2),
        ("toy", commuting_toy, 0),
    ):
        for n in (8, 10, 12):
            g = chain_graph(n)
            phi = make(g)
            region = tuple(range(n))
            H = hamiltonian(phi, region, projector_form=True)
            lam = min(spectral_data(H).gap, 1.0)
            g_meas = commutation_degree(phi)
            assert g_meas == g_expected
            T = layer_product(phi, region)
            V = kernel_basis(H)
            P_perp = FactoredProjectorBlock(V, tuple(range(n)), n, 2, complement=True)
            rep = standard_dl_check(T, P_perp, lam, g_meas)
            if not rep.ok:
                violations += 1
            details.append(f"{model}(n={n}): {rep.norm_sq:.4f}<={rep.bound:.4f}")
    report(6, violations == 0, "; ".join(details[:3]) + " ...", t0)


def test_criterion_7_refined_dl_and_overlap_chain():
    t0 = time.time()
    violations = []
    tested = 0
    cases = [
        (heisenberg_fm, 12, 6, 1, 2.0),
        (heisenberg_fm, 12, 6, 1, 3.0),
        (commuting_toy, 12, 6, 1, 2.0),
        (commuting_toy, 13, 6, 1, 4.0),
    ]
    for make, n, k, s, t in cases:
        g = chain_graph(n)
        phi = make(g)
        for pair in split_pairs(tuple(range(n)), k, s, g):
            rep = overlap_check(phi, g, pair, t)
            tested += 1
            if not rep.lhs_le_mid:
                violations.append(f"lhs>{rep.mid}")
            if rep.dl_le_bound is False:
                violations.append("dl>bound")
    report(
        7, not violations,
        f"{tested} splits, zero violations of lhs<=mid and gated refined bound",
        t0,
    )


def test_criterion_8_recursion_soundness():
    t0 = time.time()
    # (a) gapped commuting toy: positive certificate below every region gap
    g = chain_graph(13)
    toy = commuting_toy(g)
    dm = measure_delta_k(toy, g, 6, 1)
    lam = min(dm.gap_min, 1.0)
    seq = GapSequence.from_columns([6], [lam], [1], [dm.value])
    cert = certify(seq, 1.0, s_rule=(1.0, 1.25))
    region_gaps = [
        spectral_data(hamiltonian(toy, tuple(range(n)), projector_form=True)).gap
        for n in (4, 8, 13)
    ]
    sound = cert.certifiable and 0.0 < cert.lower_bound <= min(region_gaps) + 1e-9

    # (b) synthetic product against exact rational arithmetic
    ks = list(range(2, 41))
    seq2 = GapSequence.from_columns(
        ks, [1.0] * len(ks), [k ** 2 for k in ks], [2.0 ** -k for k in ks]
    )
    cert2 = certify(seq2, 1.0, include_tail=False)
    exact = Fraction(1)
    for k in ks:
        exact *= (1 - Fraction(1, 2 ** k)) / (1 + Fraction(1, k * k))
    product_err = abs(cert2.finite_product - float(exact))
    ok = sound and product_err <= 1e-10
    report(
        8, ok,
        f"toy bound {cert.lower_bound:.4f} <= min gap {min(region_gaps):.4f}; "
        f"synthetic product err {product_err:.2e}",
        t0,
    )


def test_criterion_9_threshold_test():
    t0 = time.time()
    rep = threshold_test(
        hypothesis=ScalingHypothesis(2.0, 0.5), D=1, k_range=range(1, 201)
    )
    hypothesis_ok = rep.sqrt_c_deviation <= 1e-12 and rep.passed
    ks = np.arange(1, 201)
    ls = np.array([side_length(int(k), 1) for k in ks])
    rep2 = threshold_test(lambdas=ls ** -3.0, ls=ls, ss=ks.astype(float) ** 2, ks=ks)
    failing_ok = (not rep2.passed) and rep2.v[-1] < 1e-20
    report(
        9, hypothesis_ok and failing_ok,
        f"v_k = sqrt(c) to {rep.sqrt_c_deviation:.1e}; l^-3 sequence fails with v_200 = {rep2.v[-1]:.1e}",
        t0,
    )


def test_criterion_10_split_pair_geometry():
    t0 = time.time()
    checked = 0
    # 1D windows at a scale with a binding separation bound
    g1 = chain_graph(40)
    for s in (1, 2, 3):
        for p in split_pairs(tuple(range(40)), 8, s, g1):
            assert set(p.A) | set(p.B) == set(p.Y)
            bound = (side_length(8, 1) / (8 * s) - 2.0) / g1.c_gamma
            sep = region_distance(g1, set(p.A) - set(p.B), set(p.B) - set(p.A))
            assert sep >= bound - 1e-9
            assert projected_coords(g1, p.A, p.alpha) == projected_coords(g1, p.B, p.alpha)
            checked += 1
        pairs = split_pairs(tuple(range(40)), 8, s, g1)
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                oi = set(pairs[i].A) & set(pairs[i].B)
                oj = set(pairs[j].A) & set(pairs[j].B)
                assert not (oi & oj)
    # 2D window
    g2 = grid_graph(12, 14)
    Y = rectangle_members(g2, RectangleFamily(11, 2, (0.0, 0.0)))
    for p in split_pairs(Y, 11, 1, g2):
        assert set(p.A) | set(p.B) == set(Y)
        bound = (side_length(11, 2) / 8.0 - 2.0) / g2.c_gamma
        sep = region_distance(g2, set(p.A) - set(p.B), set(p.B) - set(p.A))
        assert sep >= bound - 1e-9
        assert projected_coords(g2, p.A, p.alpha) == projected_coords(g2, p.B, p.alpha)
        checked += 1
    report(10, True, f"{checked} pairs verified on 1D and 2D windows", t0)
