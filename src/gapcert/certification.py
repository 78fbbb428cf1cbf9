"""Gap recursion, overlap-norm measurement, iterated lower-bound certificates,
threshold/root tests, and finite-size scaling classification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tensor import Difference, FactoredProjectorBlock, OperatorChain, matfree_norm
from .errors import CertificationError, SplitError
from .interaction import Interaction, reduce_to_projectors
from .lattice import (
    EmbeddedGraph,
    Region,
    SplitPair,
    enumerate_windows,
    make_region,
    side_length,
    split_pairs,
)
from .operators import SpectralData, embedded_kernel_projector, hamiltonian, spectral_data


# windows above this Hilbert-space dimension are skipped (and the row sampled)
DEFAULT_DIM_CAP = 2 ** 14


def recursion_step(gap_F: float, delta: float, s: float) -> float:
    """One divide-and-conquer step: (1 - delta) / (1 + 1/s) * gap_F."""
    if not (0.0 <= delta <= 1.0):
        raise CertificationError("delta must lie in [0, 1]")
    if s < 1:
        raise CertificationError("s must be >= 1")
    return (1.0 - delta) / (1.0 + 1.0 / s) * gap_F


def pair_overlap_norm(phi: Interaction, pair: SplitPair, region_solve: SpectralData) -> float:
    """|| P_A P_B - P_{A u B} || for one split pair, matrix-free.

    The one construction of this norm: delta_k and the left end of the
    detectability overlap chain both read it.  region_solve is the solve of
    the projector-form Hamiltonian on pair.Y with its kernel basis; the
    ground projectors P_A and P_B are built here.
    """
    region = make_region(pair.Y)
    n = len(region)
    phi_proj = reduce_to_projectors(phi.within(region))
    P_A, P_B = (embedded_kernel_projector(phi_proj, X, region, phi.d) for X in (pair.A, pair.B))
    P_Y = FactoredProjectorBlock(region_solve.kernel(), tuple(range(n)), n, phi.d)
    return matfree_norm(Difference(OperatorChain([P_A, P_B], phi.d ** n), P_Y))


def region_fits_scale(g: EmbeddedGraph, region: Region, k: int) -> bool:
    """True when the region's bounding box fits a scale-k rectangle (any axis order)."""
    pts = np.array([g.coord(v) for v in region])
    extents = np.sort(pts.max(axis=0) - pts.min(axis=0))
    sides = np.sort([side_length(k + 1 + i, g.D) for i in range(g.D)])
    return bool(np.all(extents <= sides + 1e-9))


@dataclass
class DeltaMeasurement:
    """Max overlap norm over the generated pair family at one scale."""

    k: int
    value: float
    regions_tested: int
    pairs_tested: int
    skipped_regions: int
    exhaustive: bool
    gap_min: float  # smallest measured region gap, for lambda_k use
    max_region_size: int = 0
    max_hilbert_dim: int = 0


def measure_delta_k(
    phi: Interaction,
    g: EmbeddedGraph,
    k: int,
    s: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    axis_perms: bool = False,
) -> DeltaMeasurement:
    """Measure delta_k = max over split pairs of || P_A P_B - P_{A u B} ||.

    Pairs come from slab splits of every scale-k window materialized on the
    graph that does not already fit at scale k-1.  A window with no nonzero
    term is passed over, as its ground projector is the identity.  When a
    window is skipped by dim_cap or a failed split, the result is flagged
    as a sampled lower estimate of the sup (exhaustive=False).  A tested
    window whose solve has no gap is a CertificationError.
    """
    values: list[float] = []
    skipped = split_failed = 0
    regions = 0
    gap_min = math.inf
    max_size = 0
    for fam, Y in enumerate_windows(g, k, axis_perms=axis_perms):
        if k >= 1 and region_fits_scale(g, Y, k - 1):
            continue
        if phi.d ** len(Y) > dim_cap:
            skipped += 1
            continue
        try:
            pairs = split_pairs(Y, k, s, g, alpha=fam.long_axis)
        except SplitError:
            skipped += 1
            split_failed += 1
            continue
        if not phi.within(Y).nonzero_terms():
            continue
        regions += 1
        max_size = max(max_size, len(Y))
        sd = spectral_data(hamiltonian(phi, Y, projector_form=True), with_basis=True)
        if sd.gap is None:
            raise CertificationError(f"window {Y} at scale k = {k} has no gap: its Hamiltonian is all kernel")
        gap_min = min(gap_min, sd.gap)
        values += [pair_overlap_norm(phi, pair, region_solve=sd) for pair in pairs]
    if not values:
        raise CertificationError(
            f"no split pairs could be generated at scale k = {k}: {skipped - split_failed} windows "
            f"skipped above the dimension cap {dim_cap}, {split_failed} for split errors"
        )
    return DeltaMeasurement(
        k, max(values), regions, len(values), skipped, skipped == 0,
        gap_min, max_size, phi.d ** max_size,
    )


@dataclass
class GapEntry:
    k: int
    l_k: float
    lambda_k: float
    s_k: float
    delta_k: float

    def __post_init__(self):
        if not (0.0 < self.lambda_k <= 1.0):
            raise CertificationError("lambda_k must lie in (0, 1]")
        if self.s_k < 1:
            raise CertificationError("s_k must be >= 1")
        if not (0.0 <= self.delta_k <= 1.0):
            raise CertificationError("delta_k must lie in [0, 1]")


@dataclass
class GapSequence:
    """Measured (or hypothesized) per-scale data feeding the certificate."""

    entries: list[GapEntry]
    D: int = 1

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: e.k)
        ks = [e.k for e in self.entries]
        if len(set(ks)) != len(ks):
            raise CertificationError("duplicate k in gap sequence")

    @classmethod
    def from_columns(cls, ks, lambdas, ss, deltas, D: int = 1) -> "GapSequence":
        if not (len(ks) == len(lambdas) == len(ss) == len(deltas)):
            raise CertificationError("inconsistent sequence lengths")
        entries = [
            GapEntry(int(k), side_length(int(k), D), float(l), float(s), float(dd))
            for k, l, s, dd in zip(ks, lambdas, ss, deltas)
        ]
        return cls(entries, D)


@dataclass
class Certificate:
    """Lower bound gap(whole graph) >= phi_min * base_gap * prod(factors) * (1 - tail)."""

    k0: int | None
    base_gap: float
    factors: list[float]
    phi_min: float
    finite_product: float
    tail_estimate: float | None
    lower_bound: float
    certifiable: bool
    notes: list[str] = field(default_factory=list)


def power_or_inf(k: float, b: float) -> float:
    """k ** b, or +inf where the float overflows."""
    try:
        return k ** b
    except OverflowError:
        return math.inf


def _fit_power_law(xs, ys) -> tuple[float, float]:
    """Least squares fit y = a * x^b; returns (a, b)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    b, loga = np.polyfit(lx, ly, 1)
    return float(np.exp(loga)), float(b)


def _tail_estimate(
    entries: list[GapEntry],
    notes: list[str],
    s_rule: tuple[float, float] | None = None,
    D: int = 1,
) -> float | None:
    """Model-based bound on 1 - prod_{k > K_max} factor; None when divergent.

    s_rule = (a, b) declares the generating rule s_k = a * k^b; without it
    the rule is fitted from the data (needs >= 3 points).  The rule is
    clamped to the admissible window [1, l_k / 8] scale by scale, so the
    near tail is summed explicitly before switching to the integral bound.
    """
    deltas = np.array([e.delta_k for e in entries], dtype=float)
    ss = np.array([e.s_k for e in entries], dtype=float)
    ks = np.array([e.k for e in entries], dtype=float)
    k_max = ks[-1]

    # sum 1/s_k tail
    if np.all(np.isinf(ss)):
        s_tail = 0.0
    else:
        if s_rule is not None:
            a, b = s_rule
        else:
            finite = np.isfinite(ss)
            if finite.sum() < 3:
                notes.append("tail: insufficient s_k data, tail disabled")
                return None
            a, b = _fit_power_law(ks[finite], ss[finite])
        if b <= 1.0 + 1e-9:
            notes.append(f"tail: s_k ~ k^{b:.3f} not summable")
            return math.inf
        horizon = int(k_max) + 400
        s_tail = sum(
            1.0 / max(1.0, min(a * power_or_inf(k, b), side_length(k, D) / 8.0))
            for k in range(int(k_max) + 1, horizon + 1)
        )
        s_tail += horizon ** (1.0 - b) / (a * (b - 1.0))

    # sum delta_k tail via geometric majorant of the fitted decay
    if np.all(deltas == 0.0):
        d_tail = 0.0
    else:
        pos = deltas > 0
        if pos.sum() < 3:
            notes.append("tail: insufficient positive delta_k data, tail disabled")
            return None
        slope = np.polyfit(ks[pos], np.log(deltas[pos]), 1)[0]
        rho = math.exp(slope)
        if rho >= 1.0:
            notes.append(f"tail: delta_k trend ratio {rho:.3f} >= 1 (root test fails)")
            return math.inf
        d_next = deltas[pos][-1] * rho
        d_sum = d_next / (1.0 - rho)
        d_max = min(max(deltas.max(), d_next), 0.999999)
        d_tail = d_sum / (1.0 - d_max)

    total = s_tail + d_tail
    return 1.0 - math.exp(-total)


def certify(
    gaps: GapSequence,
    phi_min: float,
    K_max: int | None = None,
    include_tail: bool = True,
    s_rule: tuple[float, float] | None = None,
) -> Certificate:
    """Iterated divide-and-conquer lower bound from per-scale data.

    The finite product runs from the smallest k0 with delta_k < 1 onward up
    to K_max; the infinite remainder is bounded by a model-based tail
    (reported separately and disabled via include_tail=False).
    """
    notes: list[str] = []
    entries = [e for e in gaps.entries if K_max is None or e.k <= K_max]
    if not entries:
        raise CertificationError("empty k range")
    # smallest k0 with delta_j < 1 for every j >= k0 in the data
    k0_idx = None
    for i in range(len(entries)):
        if all(e.delta_k < 1.0 for e in entries[i:]):
            k0_idx = i
            break
    if k0_idx is None:
        return Certificate(
            None, 0.0, [], phi_min, 0.0, None, 0.0, False, ["not certifiable: delta_k >= 1 persists"]
        )
    tail_entries = entries[k0_idx:]
    k0 = tail_entries[0].k
    base_gap = tail_entries[0].lambda_k
    factors = [
        (1.0 - e.delta_k) / (1.0 + 1.0 / e.s_k) for e in tail_entries
    ]
    finite_product = float(np.prod(factors))
    if not include_tail:
        return Certificate(
            k0, base_gap, factors, phi_min, finite_product, 0.0,
            phi_min * base_gap * finite_product, True, ["tail disabled"],
        )
    tail = _tail_estimate(tail_entries, notes, s_rule=s_rule, D=gaps.D)
    if tail is None:
        notes.append("tail unavailable; certificate reports the finite product only")
        return Certificate(
            k0, base_gap, factors, phi_min, finite_product, None,
            phi_min * base_gap * finite_product, True, notes,
        )
    if math.isinf(tail):
        notes.append("not certifiable: tail diverges")
        return Certificate(
            k0, base_gap, factors, phi_min, finite_product, None, 0.0, False, notes
        )
    return Certificate(
        k0, base_gap, factors, phi_min, finite_product, tail,
        phi_min * base_gap * finite_product * (1.0 - tail), True, notes,
    )


@dataclass
class ScalingHypothesis:
    """lambda_k = c k^(4+eps) / l_k^2 with s_k = k^(1+eps/2)."""

    c: float
    epsilon: float

    def __post_init__(self):
        if self.c <= 0 or self.epsilon <= 0:
            raise CertificationError("need c > 0 and epsilon > 0")

    def sequences(self, D: int, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ks = np.asarray(ks, dtype=float)
        ls = np.array([side_length(int(k), D) for k in ks])
        lambdas = self.c * ks ** (4.0 + self.epsilon) / ls ** 2
        ss = ks ** (1.0 + self.epsilon / 2.0)
        return lambdas, ls, ss


@dataclass
class ThresholdReport:
    v: np.ndarray
    tail_min: float
    passed: bool
    root_test_value: float
    sqrt_c_deviation: float | None = None


def threshold_test(
    lambdas=None,
    ls=None,
    ss=None,
    ks=None,
    hypothesis: ScalingHypothesis | None = None,
    D: int = 1,
    k_range=None,
) -> ThresholdReport:
    """Evaluate v_k = sqrt(lambda_k) l_k / (k s_k) and test liminf v_k > 0.

    Either explicit sequences or a ScalingHypothesis (with D and k_range)
    must be supplied.  For the hypothesis the exact limit sqrt(c) is also
    compared against.
    """
    sqrt_c = None
    if hypothesis is not None:
        if k_range is None:
            raise CertificationError("hypothesis mode needs k_range")
        ks = np.asarray(list(k_range), dtype=float)
        if ks.size == 0:
            raise CertificationError("empty k range")
        lambdas, ls, ss = hypothesis.sequences(D, ks)
        sqrt_c = math.sqrt(hypothesis.c)
    else:
        if lambdas is None or ls is None or ss is None or ks is None:
            raise CertificationError("explicit mode needs lambdas, ls, ss, ks")
        ks = np.asarray(ks, dtype=float)
        lambdas = np.asarray(lambdas, dtype=float)
        ls = np.asarray(ls, dtype=float)
        ss = np.asarray(ss, dtype=float)
    if np.any(lambdas <= 0) or np.any(ss <= 0):
        raise CertificationError("sequences must be positive")
    v = np.sqrt(lambdas) * ls / (ks * ss)
    window = max(3, len(v) // 4)
    tail = v[-window:]
    tail_min = float(tail.min())
    if len(tail) >= 2:
        tail_slope = float(np.polyfit(ks[-window:], np.log(tail), 1)[0])
    else:
        tail_slope = 0.0
    passed = bool(tail_min > 1e-8 and tail_slope >= -1e-3)
    dev = None
    if sqrt_c is not None:
        dev = float(np.max(np.abs(v - sqrt_c)) / sqrt_c)
    return ThresholdReport(v, tail_min, passed, math.exp(-tail_min), dev)


def delta_bound_theoretical(
    lambda_k: float, l_k: float, s_k: float, C1: float, C2: float
) -> float:
    """C1 exp(-C2 sqrt(lambda_k) l_k / s_k)."""
    if min(lambda_k, l_k, s_k) <= 0:
        raise CertificationError("inputs must be positive")
    return C1 * math.exp(-C2 * math.sqrt(lambda_k) * l_k / s_k)


def fit_delta_bound(lambdas, ls, ss, deltas) -> tuple[float, float]:
    """Least-squares fit of (C1, C2) from measured decay data.

    Regresses log(delta) on x = sqrt(lambda) l / s; needs at least three
    points with delta > 0.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    ls = np.asarray(ls, dtype=float)
    ss = np.asarray(ss, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    keep = deltas > 0
    if keep.sum() < 3:
        raise CertificationError("insufficient data to fit (need 3 positive deltas)")
    x = np.sqrt(lambdas[keep]) * ls[keep] / ss[keep]
    slope, intercept = np.polyfit(x, np.log(deltas[keep]), 1)
    return float(np.exp(intercept)), float(-slope)


# finite-size classification bands; toolkit conventions, not theory constants
GAPPED_SLOPE = 0.25
INVERSE_SQUARE_BAND = (-2.5, -1.5)
DEFAULT_GAP_FLOOR = 0.05


@dataclass
class ScalingFit:
    exponent: float
    classification: str
    gap_min: float


def scaling_fit(sizes, gaps, gap_floor: float = DEFAULT_GAP_FLOOR) -> ScalingFit:
    """Log-log slope of gap versus linear size with a coarse classification."""
    sizes = np.asarray(sizes, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if np.unique(sizes).size < 3:
        raise CertificationError("insufficient data: need at least 3 distinct sizes")
    if np.any(gaps <= 0):
        raise CertificationError("gapless at finite size: non-positive gap in data")
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    gap_min = float(gaps.min())
    if abs(slope) < GAPPED_SLOPE and gap_min > gap_floor:
        cls = "gapped"
    elif INVERSE_SQUARE_BAND[0] <= slope <= INVERSE_SQUARE_BAND[1]:
        cls = "inverse-square-compatible"
    elif INVERSE_SQUARE_BAND[1] < slope <= -GAPPED_SLOPE:
        cls = "slower-than-inverse-square (excluded regime)"
    elif slope < INVERSE_SQUARE_BAND[0]:
        cls = "faster-than-inverse-square"
    else:
        cls = "undetermined"
    return ScalingFit(float(slope), cls, gap_min)
