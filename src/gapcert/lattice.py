"""Euclidean-embedded graphs, rectangle windows, and overlapping split pairs.

A graph lives in R^D through an injective coordinate map; graph (hop)
distance and Euclidean distance are tied together by the bi-Lipschitz
constant stored on the graph.  Regions are plain tuples of vertex ids,
always sorted, so tensor-factor positions are reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError, RegionError, SplitError, UnreachablePairError

# closed-interval membership tolerance for rectangle tests
COORD_TOL = 1e-9

Region = tuple[int, ...]


def make_region(ids) -> Region:
    return tuple(sorted(set(int(i) for i in ids)))


@dataclass(eq=False)
class EmbeddedGraph:
    """Finite graph with coordinates in R^D.

    ids        vertex identifiers, ascending
    coords     (N, D) float array, row i = coordinates of ids[i]
    adjacency  id -> tuple of neighbor ids
    c_gamma    bi-Lipschitz constant >= 1 relating hop and Euclidean distance
    """

    ids: tuple[int, ...]
    coords: np.ndarray
    adjacency: dict[int, tuple[int, ...]]
    D: int
    c_gamma: float = 1.0
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.ids = tuple(int(i) for i in self.ids)
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if self.coords.shape != (len(self.ids), self.D):
            raise GraphError("coordinate array shape does not match vertex list")
        if self.c_gamma < 1.0:
            raise GraphError("c_gamma must be >= 1")
        self._index = {v: i for i, v in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise GraphError("duplicate vertex ids")
        for v, nbrs in self.adjacency.items():
            if v not in self._index:
                raise GraphError(f"edge endpoint {v} is not a vertex")
            for w in nbrs:
                if w not in self._index:
                    raise GraphError(f"edge endpoint {w} is not a vertex")

    def __len__(self) -> int:
        return len(self.ids)

    def coord(self, v: int) -> np.ndarray:
        return self.coords[self._index[v]]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency.get(v, ())

    def euclidean(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.coord(i) - self.coord(j)))


def chain_graph(n: int, c_gamma: float = 1.0) -> EmbeddedGraph:
    """Path graph on n vertices embedded at integer positions of the line."""
    ids = tuple(range(n))
    coords = np.arange(n, dtype=float).reshape(n, 1)
    adj = {}
    for i in range(n):
        nbrs = []
        if i > 0:
            nbrs.append(i - 1)
        if i < n - 1:
            nbrs.append(i + 1)
        adj[i] = tuple(nbrs)
    return EmbeddedGraph(ids, coords, adj, D=1, c_gamma=c_gamma)


def grid_graph(*lengths: int, c_gamma: float | None = None) -> EmbeddedGraph:
    """Hypercubic grid with the given side lengths, integer coordinates."""
    Dd = len(lengths)
    if Dd < 1:
        raise GraphError("grid needs at least one length")
    shape = tuple(int(s) for s in lengths)
    n = int(np.prod(shape))
    coords = np.stack(
        np.meshgrid(*[np.arange(s, dtype=float) for s in shape], indexing="ij"), axis=-1
    ).reshape(n, Dd)
    strides = [int(np.prod(shape[k + 1:])) for k in range(Dd)]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        idx = coords[i].astype(int)
        for ax in range(Dd):
            if idx[ax] + 1 < shape[ax]:
                adj[i].append(i + strides[ax])
                adj[i + strides[ax]].append(i)
    adjacency = {v: tuple(sorted(ns)) for v, ns in adj.items()}
    # hop distance on a grid is the L1 distance, so sqrt(D) is exact
    cg = math.sqrt(Dd) if c_gamma is None else c_gamma
    return EmbeddedGraph(tuple(range(n)), coords, adjacency, D=Dd, c_gamma=max(1.0, cg))


def bfs_distances(g: EmbeddedGraph, sources, cutoff: float | None = None) -> dict[int, int]:
    """Hop distances from a set of source vertices (multi-source BFS)."""
    dist = {int(s): 0 for s in sources}
    queue = deque(dist.keys())
    while queue:
        v = queue.popleft()
        dv = dist[v]
        if cutoff is not None and dv >= cutoff:
            continue
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dv + 1
                queue.append(w)
    return dist


def graph_distance(g: EmbeddedGraph, i: int, j: int) -> int:
    """Shortest-path hop count between two vertices."""
    if i not in g._index or j not in g._index:
        raise GraphError("vertex not in graph")
    if i == j:
        return 0
    dist = bfs_distances(g, [i])
    if j not in dist:
        raise UnreachablePairError(f"unreachable pair ({i}, {j})")
    return dist[j]


def ball(g: EmbeddedGraph, i: int, r: float) -> Region:
    """All vertices within hop distance r of vertex i."""
    if i not in g._index:
        raise GraphError("vertex not in graph")
    if r < 0:
        return ()
    dist = bfs_distances(g, [i], cutoff=math.floor(r))
    return make_region(v for v, dv in dist.items() if dv <= r)


def region_distance(g: EmbeddedGraph, a, b) -> int:
    """Minimal hop distance between two vertex sets."""
    a = set(a)
    b = set(b)
    if not a or not b:
        raise RegionError("region distance needs nonempty sets")
    if a & b:
        return 0
    dist = bfs_distances(g, a)
    vals = [dist[v] for v in b if v in dist]
    if not vals:
        raise UnreachablePairError("unreachable region pair")
    return min(vals)


@dataclass
class EmbeddingReport:
    """Result of validating the bi-Lipschitz embedding condition."""

    ok: bool
    fitted_c: float | None
    violation: tuple[int, int] | None
    message: str


def check_embedding(g: EmbeddedGraph) -> EmbeddingReport:
    """Fit the smallest constant C >= 1 with C^-1 |x_i - x_j| <= d(i,j) <= C |x_i - x_j|.

    Exhaustive over all vertex pairs (BFS from every vertex).  Reports the
    first violating pair when the embedding cannot satisfy the condition at
    all: duplicate coordinates or unreachable pairs.
    """
    n = len(g)
    # injectivity
    rounded = {}
    for v in g.ids:
        key = tuple(g.coord(v))
        if key in rounded:
            return EmbeddingReport(False, None, (rounded[key], v), "duplicate coordinates")
        rounded[key] = v
    c = 1.0
    for v in g.ids:
        dist = bfs_distances(g, [v])
        for w in g.ids:
            if w <= v:
                continue
            if w not in dist:
                return EmbeddingReport(
                    False, None, (v, w), "unreachable pair breaks the upper bound"
                )
            e = g.euclidean(v, w)
            dd = dist[w]
            if e == 0.0:
                return EmbeddingReport(False, None, (v, w), "duplicate coordinates")
            c = max(c, dd / e, e / dd)
    return EmbeddingReport(True, c, None, f"fitted C over {n * (n - 1) // 2} pairs")


def side_length(k: int, D: int) -> float:
    """Linear scale of the k-th rectangle family, (3/2)**(k/D)."""
    if k < 0 or D < 1:
        raise ValueError("need k >= 0 and D >= 1")
    return (1.5) ** (k / D)


@dataclass
class RectangleFamily:
    """One placed member of the scale-k rectangle family.

    The base rectangle has sides side_length(k+1, D) ... side_length(k+D, D);
    `axis_perm[a]` names which base side lies along coordinate axis a, and
    `translate` shifts the whole box.
    """

    k: int
    D: int
    translate: tuple[float, ...]
    axis_perm: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.axis_perm is None:
            self.axis_perm = tuple(range(self.D))
        if sorted(self.axis_perm) != list(range(self.D)):
            raise RegionError("axis_perm must be a permutation of 0..D-1")
        if len(self.translate) != self.D:
            raise RegionError("translate must have D entries")

    @property
    def sides(self) -> tuple[float, ...]:
        """Side lengths along coordinate axes after permutation."""
        base = [side_length(self.k + 1 + i, self.D) for i in range(self.D)]
        return tuple(base[self.axis_perm[a]] for a in range(self.D))

    @property
    def long_axis(self) -> int:
        s = self.sides
        return int(np.argmax(s))


def rectangle_members(g: EmbeddedGraph, fam: RectangleFamily) -> Region:
    """Vertices whose coordinates lie in the placed rectangle (closed, tol 1e-9)."""
    if fam.D != g.D:
        raise RegionError("rectangle dimension does not match graph")
    lo = np.asarray(fam.translate, dtype=float)
    hi = lo + np.asarray(fam.sides, dtype=float)
    inside = np.all(
        (g.coords >= lo - COORD_TOL) & (g.coords <= hi + COORD_TOL), axis=1
    )
    return make_region(np.asarray(g.ids)[inside])


def enumerate_windows(
    g: EmbeddedGraph, k: int, *, axis_perms: bool = False
) -> list[tuple[RectangleFamily, Region]]:
    """Family members with nonempty vertex sets, over axis-aligned integer translates.

    Bounded enumeration: translates range over integer shifts keeping the box
    within 1 of the graph's coordinate bounding box.
    """
    import itertools

    lo = g.coords.min(axis=0)
    hi = g.coords.max(axis=0)
    perms = itertools.permutations(range(g.D)) if axis_perms else [tuple(range(g.D))]
    seen = {}
    for perm in perms:
        fam0 = RectangleFamily(k, g.D, tuple([0.0] * g.D), tuple(perm))
        sides = np.asarray(fam0.sides)
        # any integer translate whose box can intersect the bounding box (+1)
        ranges = [
            range(int(math.floor(lo[a] - sides[a] - 1)), int(math.ceil(hi[a] + 1)) + 1)
            for a in range(g.D)
        ]
        for shift in itertools.product(*ranges):
            fam = RectangleFamily(k, g.D, tuple(float(s) for s in shift), tuple(perm))
            reg = rectangle_members(g, fam)
            if reg and reg not in seen:
                seen[reg] = fam
    return [(fam, reg) for reg, fam in seen.items()]


@dataclass
class SplitPair:
    """Overlapping cover Y = A union B with a slab overlap along one axis."""

    A: Region
    B: Region
    Y: Region
    alpha: int
    separation: int
    overlap_interval: tuple[float, float]


def projected_coords(g: EmbeddedGraph, region, alpha: int) -> set[tuple[float, ...]]:
    """Coordinates of a region with the alpha entry zeroed (a set)."""
    out = set()
    for v in region:
        c = list(g.coord(v))
        c[alpha] = 0.0
        out.add(tuple(c))
    return out


def split_pairs(
    Y: Region, k: int, s: int, g: EmbeddedGraph, alpha: int | None = None
) -> list[SplitPair]:
    """Slice Y along its long axis into s overlapping pairs.

    Places s disjoint slabs of width side_length(k)/ (8 s) in the middle half
    of the long side; pair i is (everything left of slab i's right edge,
    everything right of slab i's left edge).  Guarantees, for every pair,
    Y = A u B, matching projections orthogonal to the slicing axis, and hop
    separation of the non-shared parts of at least
    c_gamma^-1 (side_length(k)/(8 s) - 2).
    """
    if s == 0:
        return []
    if s < 0:
        raise SplitError("s must be >= 0")
    Y = make_region(Y)
    if not Y:
        raise SplitError("unsupported region: empty")
    lk = side_length(k, g.D)
    if s > lk / 8.0 + 1e-12:
        raise SplitError(f"insufficient width: s={s} exceeds side_length(k)/8={lk / 8.0:.6g}")
    pts = np.array([g.coord(v) for v in Y])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if alpha is None:
        alpha = int(np.argmax(hi - lo))
    width = float(hi[alpha] - lo[alpha])
    slab_w = lk / (8.0 * s)
    mid_lo = lo[alpha] + width / 4.0
    seg = (width / 2.0) / s
    if slab_w > seg + 1e-12:
        raise SplitError(
            f"insufficient width: {s} slabs of width {slab_w:.6g} do not fit "
            f"in the middle half (width {width / 2.0:.6g})"
        )
    xs = pts[:, alpha]
    pairs = []
    prev_end = -math.inf
    for i in range(s):
        a = mid_lo + i * seg + (seg - slab_w) / 2.0
        b = a + slab_w
        in_A = xs <= b + COORD_TOL
        in_B = xs >= a - COORD_TOL
        A = make_region(np.asarray(Y)[in_A])
        B = make_region(np.asarray(Y)[in_B])
        if not A or not B:
            raise SplitError("unsupported region: a slab produced an empty side")
        a_only = set(A) - set(B)
        b_only = set(B) - set(A)
        if not a_only or not b_only:
            raise SplitError("unsupported region: slab swallowed one side entirely")
        if a <= prev_end + 2 * COORD_TOL:
            raise SplitError("insufficient width: slabs overlap")
        prev_end = b
        sep = region_distance(g, a_only, b_only)
        if projected_coords(g, A, alpha) != projected_coords(g, B, alpha):
            raise SplitError(
                "unsupported region: projections along the slicing axis differ"
            )
        pairs.append(SplitPair(A, B, Y, alpha, sep, (a, b)))
    # paper-level guarantee, also re-checked in tests
    bound = (lk / (8.0 * s) - 2.0) / g.c_gamma
    for p in pairs:
        if p.separation < bound - 1e-9:
            raise SplitError(
                f"separation {p.separation} below guaranteed bound {bound:.6g}"
            )
    return pairs
