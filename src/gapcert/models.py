"""Built-in frustration-free model families.

Every generator takes an EmbeddedGraph and emits per-edge terms, so the same
models run on chains, grids, or file-loaded graphs.  All terms are exact
projectors except where noted.
"""

from __future__ import annotations

import numpy as np

from .errors import InteractionError
from .interaction import Interaction, InteractionTerm
from .lattice import EmbeddedGraph, chain_graph
from .operators import check_frustration_free, hamiltonian

RNG_KIND = "pcg64"  # np.random.default_rng; bit-reproducible across platforms


def _edges(g: EmbeddedGraph) -> list[tuple[int, int]]:
    out = set()
    for v, nbrs in g.adjacency.items():
        for w in nbrs:
            out.add((min(v, w), max(v, w)))
    return sorted(out)


def singlet_projector() -> np.ndarray:
    """Two-qubit projector onto the antisymmetric (singlet) state."""
    h = np.zeros((4, 4))
    h[1, 1] = h[2, 2] = 0.5
    h[1, 2] = h[2, 1] = -0.5
    return h


def heisenberg_fm(g: EmbeddedGraph) -> Interaction:
    """Spin-1/2 ferromagnet: one singlet projector per edge, range 1."""
    terms = [InteractionTerm((i, j), singlet_projector()) for i, j in _edges(g)]
    return Interaction(terms, R=1.0, d=2)


def _spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sz = np.diag([1.0, 0.0, -1.0])
    sp_ = np.zeros((3, 3))
    sp_[0, 1] = sp_[1, 2] = np.sqrt(2.0)
    sm = sp_.T
    return sz, sp_, sm


def spin2_projector() -> np.ndarray:
    """Projector onto the total-spin-2 subspace of two spin-1 sites (rank 5)."""
    sz, sp_, sm = _spin1_matrices()
    ss = (
        np.kron(sz, sz)
        + 0.5 * (np.kron(sp_, sm) + np.kron(sm, sp_))
    )
    w, v = np.linalg.eigh(ss)
    keep = w > 0.5  # spectrum of S1.S2 is {-2, -1, +1}
    V = v[:, keep]
    return V @ V.T


def aklt_chain(n: int) -> Interaction:
    """Spin-1 chain whose edge terms project onto total spin 2 (d = 3)."""
    g = chain_graph(n)
    terms = [InteractionTerm((i, j), spin2_projector()) for i, j in _edges(g)]
    return Interaction(terms, R=1.0, d=3)


def commuting_toy(g: EmbeddedGraph | int) -> Interaction:
    """Diagonal per-edge projector onto |11>; all terms commute (g = 0)."""
    if isinstance(g, int):
        g = chain_graph(g)
    h = np.zeros((4, 4))
    h[3, 3] = 1.0
    terms = [InteractionTerm((i, j), h) for i, j in _edges(g)]
    return Interaction(terms, R=1.0, d=2)


def random_low_rank(
    g: EmbeddedGraph,
    rank: int,
    seed: int,
    d: int = 2,
    max_resamples: int = 50,
) -> tuple[Interaction, int]:
    """Per-edge Haar-random rank-r projectors, resampled until frustration-free.

    Returns (interaction, resample count).  rank 0 gives the zero interaction,
    which is trivially frustration-free.
    """
    edges = _edges(g)
    if rank < 0 or rank > d * d:
        raise InteractionError(f"rank must be in 0..{d * d}")
    if rank == 0:
        terms = [InteractionTerm(e, np.zeros((d * d, d * d))) for e in edges]
        return Interaction(terms, R=1.0, d=d), 0
    rng = np.random.default_rng(seed)
    for attempt in range(max_resamples):
        terms = []
        for e in edges:
            z = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
            q, _ = np.linalg.qr(z)
            terms.append(InteractionTerm(e, q @ q.conj().T))
        phi = Interaction(terms, R=1.0, d=d)
        H = hamiltonian(phi, tuple(g.ids))
        if check_frustration_free(H):
            return phi, attempt
    raise InteractionError(
        f"resample budget exhausted: no frustration-free instance in {max_resamples} draws"
    )


def spin_wave_upper_bound(n: int) -> float:
    """Variational upper bound on the ferromagnetic chain gap.

    Uses the standing-wave one-magnon trial state with open-chain profile
    cos(pi (j + 1/2) / n), projected orthogonal to the ground
    space, and returns its Rayleigh quotient.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    g = chain_graph(n)
    phi = heisenberg_fm(g)
    H = hamiltonian(phi, tuple(range(n))).matrix
    dim = 2 ** n
    flip = [2 ** (n - 1 - j) for j in range(n)]
    psi = np.zeros(dim)
    for j in range(n):
        psi[flip[j]] = np.cos(np.pi * (j + 0.5) / n)
    uniform = np.zeros(dim)
    for j in range(n):
        uniform[flip[j]] = 1.0
    uniform /= np.linalg.norm(uniform)
    # the uniform one-magnon state is the only kernel component in this sector
    psi = psi - uniform * (uniform @ psi)
    psi /= np.linalg.norm(psi)
    return float(np.real(psi @ (H @ psi)))
