"""Shared fixtures and independent dense oracles.

The oracle helpers here deliberately avoid the package's embedding and
eigensolver code paths: operators are assembled with plain np.kron over
explicit site lists and diagonalized with numpy directly, so agreement is
a real cross-check rather than a tautology.
"""

import numpy as np
import pytest


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def dense_embed(block, sites, region, d=2):
    """Embed a multi-site block into a region via permutation matrices only."""
    region = tuple(sorted(region))
    n = len(region)
    positions = [region.index(s) for s in sites]
    m = len(positions)
    rest = [p for p in range(n) if p not in positions]
    order = list(positions) + rest
    K = np.kron(block, np.eye(d ** (n - m)))
    src = np.arange(d ** n)
    tgt = np.zeros_like(src)
    for j, site in enumerate(order):
        tgt += ((src // d ** (n - 1 - j)) % d) * d ** (n - 1 - site)
    P = np.zeros((d ** n, d ** n))
    P[tgt, src] = 1.0
    return P @ K @ P.T


def dense_chain_hamiltonian(n, term, d=2):
    """Open chain with the same 2-site term on every bond, direct np.kron sum."""
    dim = d ** n
    H = np.zeros((dim, dim), dtype=float)
    for i in range(n - 1):
        H += kron_chain(
            [np.eye(d ** i), term, np.eye(d ** (n - i - 2))]
        )
    return H


def dense_bond_hamiltonian(n, bonds, d=2):
    """Open chain with its own 2-site term on each bond (i, i+1), direct np.kron sum."""
    H = np.zeros((d ** n, d ** n), dtype=complex)
    for i, term in bonds:
        H += kron_chain([np.eye(d ** i), term, np.eye(d ** (n - i - 2))])
    return H


def dense_ground_projector(H, tol_rel=1e-9):
    w, v = np.linalg.eigh(H)
    tol = tol_rel * max(1.0, float(np.abs(w).max()))
    V = v[:, w <= tol]
    return V @ V.conj().T


def dense_gap(H, tol_rel=1e-9):
    w = np.linalg.eigvalsh(H)
    tol = tol_rel * max(1.0, float(np.abs(w).max()))
    above = w[w > tol]
    return float(above[0]) if above.size else None


def singlet_4x4():
    h = np.zeros((4, 4))
    h[1, 1] = h[2, 2] = 0.5
    h[1, 2] = h[2, 1] = -0.5
    return h


def overlap_check(phi, g, pair, t):
    """overlap_bound_check for pair on the inputs that dl-check builds for
    pair.Y.  Not an oracle: it goes through the package's own functions."""
    from gapcert._tensor import FactoredProjectorBlock
    from gapcert.detectability import (
        column_decomposition, dl_perp_norm, layer_product, overlap_bound_check, refined_dl_bound,
    )
    from gapcert.errors import AdmissibilityError
    from gapcert.interaction import commutation_degree
    from gapcert.operators import hamiltonian, spectral_data

    decomp = column_decomposition(phi, g, pair.Y, t, alpha=pair.alpha)
    sd = spectral_data(hamiltonian(phi, pair.Y, projector_form=True), with_basis=True)
    n = len(decomp.region)
    P_perp = FactoredProjectorBlock(sd.kernel(), tuple(range(n)), n, phi.d, complement=True)
    lam = min(sd.gap, 1.0) if sd.gap is not None else 1.0
    g_used = max(commutation_degree(decomp.phi), 1)
    try:
        bound = refined_dl_bound(t, lam, layer_product(phi, pair.Y).L, g_used, g.c_gamma, phi.R)
    except AdmissibilityError:
        bound = None
    return overlap_bound_check(decomp, pair, g, sd, dl_perp_norm(decomp, P_perp), bound)


@pytest.fixture
def perturbed_gap_ritz_vector(monkeypatch):
    """Every tridiagonal eigenvector of the sparse gap Lanczos 1e-3 off, so
    that no Ritz vector it forms passes the residual check in H."""
    import scipy.linalg as sla

    real = sla.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        w, s = real(*args, **kwargs)
        return w, s + 1e-3

    monkeypatch.setattr(sla, "eigh_tridiagonal", perturbed)


@pytest.fixture
def fm_term():
    return singlet_4x4()


@pytest.fixture
def chain10():
    from gapcert.lattice import chain_graph

    return chain_graph(10)
