"""Finite-range interactions: projector reduction, norm bounds, layer coloring,
and the commutation degree used by detectability-lemma estimates.

Every per-term fact lives on InteractionTerm: a term is checked Hermitian
when it is made, and its one eigendecomposition (levels, vectors, norm) is
computed on first read and shared by the zero test, the PSD check, the norm
bounds, the projector reduction and the region solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._tensor import embed_sum
from .errors import InteractionError
from .lattice import EmbeddedGraph, Region, graph_distance, make_region

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
# eigenvalues below KERNEL_REL * ||matrix|| count as kernel when projecting
KERNEL_REL = 1e-9
COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class InteractionTerm:
    """One PSD term with its support region; matrix dim is d^len(support).

    A square matrix that is not Hermitian is rejected here; the shape is
    checked against d by check_shape, which Interaction and the region
    operator call.  Frozen, so the cached spectrum cannot drift from the
    matrix.
    """

    support: Region
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        object.__setattr__(self, "support", make_region(self.support))
        object.__setattr__(self, "matrix", m)
        if m.ndim == 2 and m.shape[0] == m.shape[1] and (
            np.linalg.norm(m - m.conj().T) > HERMITICITY_TOL * max(1.0, np.linalg.norm(m))
        ):
            raise InteractionError(f"term on {self.support}: matrix is not Hermitian")

    def local_dim(self, d: int) -> int:
        return d ** len(self.support)

    def check_shape(self, d: int) -> None:
        """InteractionError unless the matrix is d^len(support) square."""
        if self.matrix.shape != (self.local_dim(d),) * 2:
            raise InteractionError(
                f"term on {self.support}: matrix shape {self.matrix.shape} "
                f"does not match d^{len(self.support)}"
            )

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Levels (ascending) and eigenvectors: the term's one eigh, on first read."""
        return np.linalg.eigh(self.matrix)

    @property
    def norm(self) -> float:
        """Operator norm, read off the levels."""
        w = self.spectrum[0]
        return float(max(-w[0], w[-1]))

    @property
    def is_psd(self) -> bool:
        """No level below -PSD_TOL * max(1, ||term||)."""
        return self.spectrum[0][0] >= -PSD_TOL * max(1.0, self.norm)

    def check_psd(self) -> None:
        """InteractionError when the term is not PSD (is_psd)."""
        if not self.is_psd:
            raise InteractionError(f"term on {self.support}: negative eigenvalue {self.spectrum[0][0]:.3e}")

    @functools.cached_property
    def _range_projector(self) -> InteractionTerm | None:
        """The projector onto the range, on the same support (see
        reduce_to_projectors); None for a term with no level above
        KERNEL_REL * ||term||.  Computed on first read; its spectrum is
        this term's eigenvectors with levels 0 and 1, not solved again."""
        if self.norm == 0.0:
            return None
        self.check_psd()
        w, v = self.spectrum
        keep = w > KERNEL_REL * self.norm
        if not keep.any():
            return None
        V = v[:, keep]
        proj = V @ V.conj().T
        if not np.iscomplexobj(self.matrix):
            proj = proj.real
        out = InteractionTerm(self.support, proj)
        # ascending: the kept levels are the top ones
        object.__setattr__(out, "spectrum", (keep.astype(float), v))
        return out


@dataclass(eq=False)
class Interaction:
    """A finite list of terms with range R and local dimension d."""

    terms: list[InteractionTerm]
    R: float
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise InteractionError("local dimension must be >= 2")
        for term in self.terms:
            term.check_shape(self.d)

    def nonzero_terms(self) -> list[InteractionTerm]:
        return [t for t in self.terms if t.norm > 0]

    def terms_within(self, region: Region) -> list[InteractionTerm]:
        rset = set(region)
        return [t for t in self.terms if set(t.support) <= rset]

    def within(self, region: Region) -> Interaction:
        """The interaction of the terms supported inside region."""
        return Interaction(self.terms_within(region), R=self.R, d=self.d)


def phi_bounds(phi: Interaction) -> tuple[float, float]:
    """Largest operator norm and smallest nonzero eigenvalue over the terms."""
    top = 0.0
    bottom = np.inf
    for term in phi.nonzero_terms():
        w, norm = term.spectrum[0], term.norm
        top = max(top, norm)
        bottom = min(bottom, float(w.min(where=w > KERNEL_REL * norm, initial=np.inf)))
    if top == 0.0:
        raise InteractionError("empty interaction: all terms are zero")
    return top, bottom


def validate(phi: Interaction, graph: EmbeddedGraph | None = None) -> None:
    """Raise InteractionError on any violated term invariant.

    Checks positive semi-definiteness (Hermiticity is checked when a term is
    made) and, when a graph is supplied, that each support has hop diameter
    at most R.
    """
    terms = phi.nonzero_terms()
    if not terms:
        raise InteractionError("empty interaction: all terms are zero")
    for term in terms:
        term.check_psd()
        if graph is not None:
            diam = max(
                graph_distance(graph, i, j) for i in term.support for j in term.support
            )
            if diam > phi.R + 1e-9:
                raise InteractionError(
                    f"term on {term.support}: diameter {diam} exceeds range {phi.R}"
                )


def reduce_to_projectors(phi: Interaction) -> Interaction:
    """Replace every term by the orthogonal projector onto its range.

    Eigenvalues at or below KERNEL_REL * ||term|| are treated as kernel;
    zero terms are dropped.  The result has phi_bounds (1, 1).  Each term's
    projector is computed once and shared by every later reduction.
    """
    new_terms = [p for p in (term._range_projector for term in phi.terms) if p is not None]
    if not new_terms:
        raise InteractionError("empty interaction: all terms are zero")
    return Interaction(new_terms, R=phi.R, d=phi.d)


@dataclass
class LayerColoring:
    """Partition of term indices into layers with pairwise disjoint supports."""

    L: int
    assignment: dict[int, int]  # term index -> layer in 1..L
    max_terms_per_vertex: int
    shannon_bound: int  # floor(3 * max_terms_per_vertex / 2)

    def layers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.L)]
        for idx, layer in self.assignment.items():
            out[layer - 1].append(idx)
        return [sorted(layer) for layer in out]


def layer_coloring(phi: Interaction) -> LayerColoring:
    """Greedy disjoint-support coloring, deterministic order (min id, size)."""
    order = sorted(
        range(len(phi.terms)),
        key=lambda i: (min(phi.terms[i].support, default=-1), len(phi.terms[i].support)),
    )
    order = [i for i in order if phi.terms[i].norm > 0]
    assignment: dict[int, int] = {}
    layer_supports: list[set[int]] = []
    for idx in order:
        sup = set(phi.terms[idx].support)
        placed = False
        for layer_idx, occupied in enumerate(layer_supports):
            if not (sup & occupied):
                occupied |= sup
                assignment[idx] = layer_idx + 1
                placed = True
                break
        if not placed:
            layer_supports.append(set(sup))
            assignment[idx] = len(layer_supports)
    counts: dict[int, int] = {}
    for idx in assignment:
        for v in phi.terms[idx].support:
            counts[v] = counts.get(v, 0) + 1
    delta = max(counts.values(), default=0)
    return LayerColoring(
        L=max(len(layer_supports), 1),
        assignment=assignment,
        max_terms_per_vertex=delta,
        shannon_bound=(3 * delta) // 2,
    )


def support_overlap_degree(phi: Interaction) -> int:
    """Conservative upper bound on the commutation degree: count support overlaps."""
    terms = phi.nonzero_terms()
    best = 0
    for i, t in enumerate(terms):
        si = set(t.support)
        best = max(
            best, sum(1 for j, u in enumerate(terms) if j != i and si & set(u.support))
        )
    return best


def commutation_degree(phi: Interaction) -> int:
    """Max number of other terms a term fails to commute with.

    Pairs with disjoint supports commute exactly; overlapping pairs are
    embedded into their joint support (embed_sum, as a dense matrix) and
    the 2-norm of the commutator compared to COMMUTATOR_TOL.
    support_overlap_degree is the cheap bound.
    """
    terms = phi.nonzero_terms()
    noncommuting = [0] * len(terms)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            si, sj = set(terms[i].support), set(terms[j].support)
            if not (si & sj):
                continue
            joint = make_region(si | sj)
            a, b = (
                embed_sum([(t.matrix, tuple(map(joint.index, t.support)))], len(joint), phi.d).toarray()
                for t in (terms[i], terms[j])
            )
            comm = a @ b - b @ a
            if np.linalg.norm(comm, 2) > COMMUTATOR_TOL:
                noncommuting[i] += 1
                noncommuting[j] += 1
    return max(noncommuting, default=0)
