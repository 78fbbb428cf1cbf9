"""Coarse-grained column machinery: the detectability operator DL(t), layer
products, Chebyshev step polynomials, the polynomial smuggling identity, the
refined contraction bound, and the two-sided overlap argument.

Operators here are kept as products of small site-blocks and applied
matrix-free; norms go through one Lanczos run on the Gram operator, stopped
at the rounding level of the operator's bound, or come exact from the
diagonal, slab by slab, when every factor is diagonal.  Explicit
dense matrices are only materialized for cross-checks at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tensor import (
    Difference,
    FactoredProjectorBlock,
    OperatorChain,
    matfree_norm,
)
from .certification import pair_overlap_norm
from .errors import AdmissibilityError, DimensionCapError, RegionError
from .interaction import Interaction, layer_coloring, reduce_to_projectors
from .lattice import EmbeddedGraph, Region, make_region
from .operators import SpectralData, embedded_block, embedded_kernel_projector

# matrix-free product-space cap for the DL path
DL_DIM_CAP = 2 ** 20
IDENTITY_RESIDUAL_TOL = 1e-12
ABSORPTION_TOL = 1e-10
OVERLAP_CHAIN_TOL = 1e-9
# grid of the |F| extrema over [1 - eps, 1]
F_GRID_POINTS = 10001


def index_sets(t: float, lambda_extent: tuple[float, float]) -> tuple[list[int], list[int]]:
    """Even/odd column indices whose width-4t columns intersect the extent.

    The even progression is (2+6j)t, the odd one (5+6j)t; a column centered
    at m covers [m-2t+1, m+2t-1] along the coarse-graining axis.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    lo, hi = lambda_extent
    out: list[list[int]] = []
    for base in (2, 5):
        members = []
        # column at m intersects [lo, hi] iff m-2t+1 <= hi and m+2t-1 >= lo
        j_min = math.floor((lo - 2 * t + 1) / (6 * t) - base / 6.0) - 1
        j_max = math.ceil((hi + 2 * t - 1) / (6 * t) - base / 6.0) + 1
        for j in range(j_min, j_max + 1):
            m = (base + 6 * j) * t
            if m - 2 * t + 1 <= hi and m + 2 * t - 1 >= lo:
                members.append(int(m) if float(m).is_integer() else m)
        out.append(sorted(members))
    return out[0], out[1]


@dataclass(eq=False)
class ColumnDecomposition:
    """Width-4t columns of a region along one axis, with ground projectors.

    Columns with no vertices, or no interaction terms, act as the identity
    and are pruned from products (their indices are recorded).
    """

    t: float
    alpha: int
    region: Region
    d: int
    columns: dict[float, Region]
    projectors: dict[float, FactoredProjectorBlock]
    even_indices: list[float]
    odd_indices: list[float]
    pruned: list[float]
    phi: Interaction = field(repr=False)

    @property
    def dim(self) -> int:
        return self.d ** len(self.region)


def column_decomposition(
    phi: Interaction,
    g: EmbeddedGraph,
    region: Region,
    t: float,
    alpha: int = 0,
    allow_small_t: bool = False,
) -> ColumnDecomposition:
    """Build the coarse-grained columns and their ground projectors.

    Requires t >= max(2, c_gamma * R) (the regime where same-parity column
    projectors commute); pass allow_small_t=True to study smaller t anyway.
    """
    region = make_region(region)
    if not region:
        raise RegionError("empty region")
    t_min = max(2.0, g.c_gamma * phi.R)
    if t < t_min - 1e-12 and not allow_small_t:
        raise AdmissibilityError(f"t = {t} below max(2, c_gamma R) = {t_min}")
    dim = phi.d ** len(region)
    if dim > DL_DIM_CAP:
        raise DimensionCapError(f"region too large for the DL path: {dim} > {DL_DIM_CAP}")
    phi_proj = reduce_to_projectors(phi.within(region))
    coords = np.array([g.coord(v)[alpha] for v in region])
    extent = (float(coords.min()), float(coords.max()))
    even, odd = index_sets(t, extent)
    columns: dict[float, Region] = {}
    projectors: dict[float, FactoredProjectorBlock] = {}
    pruned: list[float] = []
    kept_even: list[float] = []
    kept_odd: list[float] = []
    for m in even + odd:
        lo, hi = m - 2 * t + 1, m + 2 * t - 1
        members = make_region(
            v for v, c in zip(region, coords) if lo - 1e-9 <= c <= hi + 1e-9
        )
        if not members or not phi_proj.terms_within(members):
            pruned.append(m)
            continue
        columns[m] = members
        projectors[m] = embedded_kernel_projector(phi_proj, members, region, phi.d)
        (kept_even if m in even else kept_odd).append(m)
    return ColumnDecomposition(
        t=t,
        alpha=alpha,
        region=region,
        d=phi.d,
        columns=columns,
        projectors=projectors,
        even_indices=sorted(kept_even),
        odd_indices=sorted(kept_odd),
        pruned=sorted(pruned),
        phi=phi_proj,
    )


@dataclass
class CommutingReport:
    max_even: float
    max_odd: float
    pairs: dict[tuple[float, float], float]

    @property
    def max_norm(self) -> float:
        return max(self.max_even, self.max_odd)


def check_commuting(decomp: ColumnDecomposition) -> CommutingReport:
    """Norms of same-parity column projector commutators (expected ~ 0)."""
    out: dict[tuple[float, float], float] = {}
    maxima = []
    for indices in (decomp.even_indices, decomp.odd_indices):
        worst = 0.0
        for i, m in enumerate(indices):
            for n_ in indices[i + 1:]:
                qm, qn = decomp.projectors[m], decomp.projectors[n_]
                comm = Difference(
                    OperatorChain([qm, qn], decomp.dim), OperatorChain([qn, qm], decomp.dim)
                )
                val = matfree_norm(comm)
                out[(m, n_)] = val
                worst = max(worst, val)
        maxima.append(worst)
    return CommutingReport(maxima[0], maxima[1], out)


def dl_operator(decomp: ColumnDecomposition) -> OperatorChain:
    """DL(t): the even-column then odd-column ground projectors, in index order."""
    factors = [decomp.projectors[m] for m in decomp.even_indices]
    factors += [decomp.projectors[m] for m in decomp.odd_indices]
    return OperatorChain(factors, decomp.dim)


def dl_perp_norm(decomp: ColumnDecomposition, P_perp) -> float:
    """||DL(t) P_perp||, with P_perp the projector off the kernel of decomp.region."""
    return matfree_norm(OperatorChain(dl_operator(decomp).factors + [P_perp], decomp.dim))


class LayerProduct(OperatorChain):
    """T = T_L ... T_1 with T_beta the product of (1 - h_X) over layer beta."""

    def __init__(self, layer_factors: list[list], dim: int):
        # product order T_L ... T_1: layer 1 acts first
        super().__init__([f for layer in reversed(layer_factors) for f in layer], dim)
        self.layer_factors = layer_factors  # index 0 = layer 1

    @property
    def L(self) -> int:
        return len(self.layer_factors)


def layer_product(phi: Interaction, region: Region) -> LayerProduct:
    """Assemble the layered product of term-complement projectors on a region."""
    region = make_region(region)
    phi_proj = phi.within(region)
    if phi_proj.terms:
        phi_proj = reduce_to_projectors(phi_proj)
    coloring = layer_coloring(phi_proj)
    layers: list[list] = [[] for _ in range(coloring.L)]
    for idx, layer in coloring.assignment.items():
        term = phi_proj.terms[idx]
        block = np.eye(term.matrix.shape[0]) - term.matrix
        layers[layer - 1].append(embedded_block(block, term.support, region, phi.d))
    return LayerProduct(layers, phi.d ** len(region))


@dataclass
class StandardDLReport:
    norm_sq: float
    bound: float
    g_used: int
    g_flagged: bool

    @property
    def ok(self) -> bool:
        return self.norm_sq <= self.bound + 1e-9


def standard_dl_check(T: LayerProduct, P_perp, lam: float, g: int) -> StandardDLReport:
    """Verify ||T P_perp||^2 <= 1 / (1 + lam / g^2).

    g = 0 (fully commuting interactions) is replaced by the conservative
    g = 1 and flagged.
    """
    flagged = g < 1
    g_used = max(g, 1)
    chain = OperatorChain(T.factors + [P_perp], T.dim)
    val = matfree_norm(chain)
    bound = 1.0 / (1.0 + lam / g_used ** 2)
    return StandardDLReport(val ** 2, bound, g_used, flagged)


# ---------------------------------------------------------------------------
# Chebyshev step polynomials
# ---------------------------------------------------------------------------


def _cheb_T(q: int, y: float) -> float:
    """Degree-q Chebyshev polynomial, recurrence on [-1,1], cosh outside."""
    if abs(y) <= 1.0:
        tk_prev, tk = 1.0, y
        if q == 0:
            return 1.0
        for _ in range(q - 1):
            tk_prev, tk = tk, 2.0 * y * tk - tk_prev
        return tk
    sign = -1.0 if (y < 0 and q % 2 == 1) else 1.0
    return sign * math.cosh(q * math.acosh(abs(y)))


@dataclass(frozen=True)
class ChebyshevStep:
    """Normalized Chebyshev ratio: 1 at x = 0, uniformly small on [gamma, 1]."""

    q: int
    gamma: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def degree(self) -> int:
        return self.q

    @property
    def denominator(self) -> float:
        # same fp expression as __call__ at x = 0, so Step(0) == 1.0 exactly
        return _cheb_T(self.q, 2.0 * (1.0 - 0.0) / (1.0 - self.gamma) - 1.0)

    def __call__(self, x: float) -> float:
        y = 2.0 * (1.0 - x) / (1.0 - self.gamma) - 1.0
        return _cheb_T(self.q, y) / self.denominator

    def envelope(self) -> float:
        """The uniform bound 2 exp(-2 q sqrt(gamma)) valid on [gamma, 1]."""
        return 2.0 * math.exp(-2.0 * self.q * math.sqrt(self.gamma))


def f_star(F, eps: float) -> float:
    """Infimum of |F| over [1 - eps, 1] on a grid.

    A continuous F that changes sign between two grid points has a root
    between them, so the infimum is then exactly 0.
    """
    eps = min(max(eps, 0.0), 1.0)
    if eps == 0.0:
        return abs(float(F(1.0)))
    vals = np.array([float(F(x)) for x in np.linspace(1.0 - eps, 1.0, F_GRID_POINTS)])
    if np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        return 0.0
    return float(np.abs(vals).min())


def f_sup(F, eps: float) -> float:
    """Supremum of |F| over [1 - eps, 1] on a grid.

    This is the quantity that actually dominates ||F(1 - T^dag T) P_perp||
    when the restricted spectrum sits in [1 - eps, 1]; the infimum variant
    f_star is kept as defined but can vanish at interior roots.
    """
    eps = min(max(eps, 0.0), 1.0)
    if eps == 0.0:
        return abs(float(F(1.0)))
    xs = np.linspace(1.0 - eps, 1.0, F_GRID_POINTS)
    return float(max(abs(float(F(x))) for x in xs))


# ---------------------------------------------------------------------------
# Smuggling identity
# ---------------------------------------------------------------------------


def printed_degree_budget(t: float, c_gamma: float, L: int, R: float) -> int:
    """ceil(t / (2 c (L-1) R) - 1), the budget as printed."""
    if L < 2:
        raise AdmissibilityError("single layer: smuggling budget undefined for L = 1")
    return math.ceil(t / (2.0 * c_gamma * (L - 1) * R) - 1.0)

def conservative_degree_budget(t: float, c_gamma: float, L: int, R: float) -> int:
    """Largest q with (q (2L-2) + 1) c R strictly below t.

    The support-propagation count behind the identity: each of the
    q(2L-2)+1 layer factors can grow the absorbed set by one interaction
    range.  For odd t this is one degree less than the printed budget.
    """
    if L < 2:
        raise AdmissibilityError("single layer: smuggling budget undefined for L = 1")
    x = (t / (c_gamma * R) - 1.0) / (2.0 * L - 2.0)
    return max(0, math.ceil(x - 1e-12) - 1)


class _GramPolynomial:
    """F(1 - T^dag T) for a layer product T, as one Hermitian chain factor.

    Chebyshev steps go through the stable three-term recurrence in the
    shifted variable; plain coefficient polynomials use Horner.
    """

    def __init__(self, F, T: LayerProduct):
        self.F = F
        self.T = T
        self.shape = T.shape
        if not isinstance(F, ChebyshevStep):
            self.coeffs = np.atleast_1d(np.asarray(F, dtype=float))
        # T is a product of projectors, so S = 1 - T^dag T has its levels in
        # [0, 1], where |F| is at most 1 for a Chebyshev step, sum |c_i| else
        self.bound = 1.0 if isinstance(F, ChebyshevStep) else float(np.abs(self.coeffs).sum())

    @property
    def diagonal(self) -> bool:
        return self.T.diagonal

    def _S(self, x):
        return x - self.T.rmatvec(self.T.matvec(x))

    def matvec(self, x):
        return self._polynomial(self._S, x)

    def diagonal_slab(self, start: int, stop: int) -> np.ndarray:
        """The recurrence on ones, with S the slab 1 - |t|^2 of a diagonal T."""
        t = self.T.diagonal_slab(start, stop)
        s = 1.0 - (t.conj() * t).real
        return self._polynomial(lambda v: s * v, np.ones(stop - start))

    def _polynomial(self, S, x):
        """F(S) x, given S as a function that applies it."""
        F = self.F
        if isinstance(F, ChebyshevStep):
            scale = 2.0 / (1.0 - F.gamma)

            def w(v):
                # w(S) = 2 (1 - S) / (1 - gamma) - 1
                return scale * (v - S(v)) - v

            b_prev, b = x, w(x)
            for _ in range(F.q - 1):
                b_prev, b = b, 2.0 * w(b) - b_prev
            return b / F.denominator
        out = self.coeffs[-1] * x
        for c in self.coeffs[-2::-1]:
            out = S(out) + c * x
        return out

    rmatvec = matvec  # Hermitian: real coefficients in the Hermitian S


def _poly_degree(F) -> int:
    if isinstance(F, ChebyshevStep):
        return F.degree
    coeffs = np.atleast_1d(np.asarray(F, dtype=float))
    nz = np.flatnonzero(np.abs(coeffs) > 0)
    return int(nz[-1]) if nz.size else 0


def _poly_at_zero(F) -> float:
    if isinstance(F, ChebyshevStep):
        return 1.0
    return float(np.atleast_1d(np.asarray(F, dtype=float))[0])


@dataclass
class SmuggleReport:
    residual: float
    degree: int
    budget_printed: int
    t: float


def smuggle_check(
    decomp: ColumnDecomposition,
    T: LayerProduct,
    F,
    c_gamma: float,
) -> SmuggleReport:
    """Residual of the polynomial insertion identity for DL(t).

    F is a ChebyshevStep or ascending polynomial coefficients with F(0) = 1.
    Degrees beyond the printed budget are refused rather than measured.
    """
    L, R = T.L, decomp.phi.R
    deg = _poly_degree(F)
    if abs(_poly_at_zero(F) - 1.0) > 1e-12:
        raise ValueError("F(0) must equal 1")
    budget = printed_degree_budget(decomp.t, c_gamma, L, R)
    if deg > budget:
        raise AdmissibilityError(
            f"degree exceeds smuggling budget: deg(F) = {deg} > {budget}"
        )
    dl = dl_operator(decomp)
    n_even = len(decomp.even_indices)
    inserted = OperatorChain(
        dl.factors[:n_even] + [_GramPolynomial(F, T)] + dl.factors[n_even:], decomp.dim
    )
    residual = matfree_norm(Difference(dl, inserted))
    return SmuggleReport(residual, deg, budget, decomp.t)


def refined_dl_bound(
    t: float, lam: float, L: int, g: int, c_gamma: float, R: float
) -> float:
    """2 exp(-(t / (c (L-1) R) - 2) sqrt(lam / (1 + g^2)))."""
    if L < 2:
        raise AdmissibilityError(
            "single layer: bound degenerate (T itself annihilates the excited space)"
        )
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if g < 1:
        raise ValueError("g must be >= 1 (use the conservative g = 1 for commuting models)")
    exponent = (t / (c_gamma * (L - 1) * R) - 2.0) * math.sqrt(lam / (1.0 + g * g))
    return 2.0 * math.exp(-exponent)


# ---------------------------------------------------------------------------
# M_A / M_B regrouping and the overlap chain
# ---------------------------------------------------------------------------


@dataclass
class MaMbSplit:
    M_A: OperatorChain
    M_B: OperatorChain
    a_indices: list[float]
    b_indices: list[float]
    support_A: Region
    support_B: Region
    product_residual: float


def _axis_bounds(g: EmbeddedGraph, vertices, alpha: int):
    xs = [g.coord(v)[alpha] for v in vertices]
    return min(xs), max(xs)


def ma_mb_split(
    decomp: ColumnDecomposition,
    pair,
    g: EmbeddedGraph,
) -> MaMbSplit:
    """Regroup the DL factors into M_A (near A-only) and M_B (the rest).

    Requires the axis separation of the exclusive parts to exceed 8t, which
    guarantees an even-column cut exists such that supp(M_A) stays in A,
    supp(M_B) stays in B, and M_A M_B reproduces DL(t) exactly.
    """
    alpha = decomp.alpha
    a_only = set(pair.A) - set(pair.B)
    b_only = set(pair.B) - set(pair.A)
    if not a_only or not b_only:
        raise AdmissibilityError("split has an empty exclusive part")
    a_lo, a_hi = _axis_bounds(g, a_only, alpha)
    b_lo, b_hi = _axis_bounds(g, b_only, alpha)
    left_first = a_hi < b_lo
    sep = (b_lo - a_hi) if left_first else (a_lo - b_hi)
    if sep <= 8 * decomp.t:
        raise AdmissibilityError(
            f"split not admissible at this t: axis separation {sep} <= 8t = {8 * decomp.t}"
        )
    evens = decomp.even_indices
    odds = decomp.odd_indices
    A_set, B_set = set(pair.A), set(pair.B)

    candidates: list[float] = [-math.inf] + list(evens) if left_first else [math.inf] + list(evens)
    for cut in candidates:
        if left_first:
            ea = [m for m in evens if m <= cut]
            oa = [m for m in odds if m < cut]
        else:
            ea = [m for m in evens if m >= cut]
            oa = [m for m in odds if m > cut]
        eb = [m for m in evens if m not in ea]
        ob = [m for m in odds if m not in oa]
        sup_a = set().union(*(decomp.columns[m] for m in ea + oa)) if ea + oa else set()
        sup_b = set().union(*(decomp.columns[m] for m in eb + ob)) if eb + ob else set()
        if sup_a <= A_set and sup_b <= B_set:
            M_A = OperatorChain(
                [decomp.projectors[m] for m in ea] + [decomp.projectors[m] for m in oa],
                decomp.dim,
            )
            M_B = OperatorChain(
                [decomp.projectors[m] for m in eb] + [decomp.projectors[m] for m in ob],
                decomp.dim,
            )
            dl = dl_operator(decomp)
            diff = Difference(OperatorChain(M_A.factors + M_B.factors, decomp.dim), dl)
            residual = matfree_norm(diff)
            if residual > IDENTITY_RESIDUAL_TOL:
                continue
            return MaMbSplit(
                M_A,
                M_B,
                ea + oa,
                eb + ob,
                make_region(sup_a),
                make_region(sup_b),
                residual,
            )
    raise AdmissibilityError("split not admissible at this t: no valid column cut")


@dataclass
class OverlapReport:
    lhs: float                 # || P_A P_B - P_AB ||
    dl_perp: float             # || DL(t) P_AB^perp ||
    mid: float                 # 3 * dl_perp
    bound: float | None        # refined contraction bound (None if degenerate)
    rhs: float | None          # 3 * bound
    admissible: bool
    absorption_a: float | None  # || P_A M_A - P_A ||
    absorption_dl: float | None  # || P_A M_B - P_A DL ||
    lhs_le_mid: bool
    dl_le_bound: bool | None   # gated: only when bound < 1

    @property
    def ok(self) -> bool:
        checks = [self.lhs_le_mid]
        if self.dl_le_bound is not None:
            checks.append(self.dl_le_bound)
        if self.absorption_a is not None:
            checks.append(self.absorption_a <= ABSORPTION_TOL)
            checks.append(self.absorption_dl <= ABSORPTION_TOL)
        return all(checks)


def overlap_bound_check(
    decomp: ColumnDecomposition,
    pair,
    g: EmbeddedGraph,
    region_solve: SpectralData,
    dl_perp: float,
    bound: float | None,
) -> OverlapReport:
    """Overlap-norm chain: lhs <= 3 ||DL P_AB_perp|| <= 3 * refined bound.

    Only lhs (pair_overlap_norm) and the absorption norms depend on the
    pair; the rest is the region's, and the caller passes it for pair.Y:
    decomp, its column decomposition along pair.alpha; region_solve, the
    solve of its projector-form Hamiltonian with the kernel basis; dl_perp,
    dl_perp_norm of decomp off that kernel; and bound, the refined_dl_bound
    of the region, None when it is degenerate.  The second inequality is
    asserted only when the bound is below 1 (it is vacuous otherwise).
    When the pair admits the M_A/M_B regrouping, the absorption identities
    are verified as well.
    """
    region = make_region(pair.Y)
    if (decomp.region, decomp.alpha) != (region, pair.alpha):
        raise ValueError("decomp is not the column decomposition of pair.Y along pair.alpha")
    lhs = pair_overlap_norm(decomp.phi, pair, region_solve)
    try:
        split = ma_mb_split(decomp, pair, g)
    except AdmissibilityError:
        split = None
    absorption_a = absorption_dl = None
    if split is not None:
        dim = decomp.dim
        P_A = embedded_kernel_projector(decomp.phi, pair.A, region, decomp.d)
        pa_ma = Difference(
            OperatorChain([P_A] + split.M_A.factors, dim), OperatorChain([P_A], dim)
        )
        absorption_a = matfree_norm(pa_ma)
        pa_mb = Difference(
            OperatorChain([P_A] + split.M_B.factors, dim),
            OperatorChain([P_A] + dl_operator(decomp).factors, dim),
        )
        absorption_dl = matfree_norm(pa_mb)

    return OverlapReport(
        lhs=lhs,
        dl_perp=dl_perp,
        mid=3.0 * dl_perp,
        bound=bound,
        rhs=None if bound is None else 3.0 * bound,
        admissible=split is not None,
        absorption_a=absorption_a,
        absorption_dl=absorption_dl,
        lhs_le_mid=bool(lhs <= 3.0 * dl_perp + OVERLAP_CHAIN_TOL),
        dl_le_bound=(
            None if bound is None or bound >= 1.0 else bool(dl_perp <= bound + OVERLAP_CHAIN_TOL)
        ),
    )
