import dataclasses

import numpy as np
import pytest
import scipy.linalg

from gapcert import operators
from gapcert.errors import InteractionError
from gapcert.interaction import (
    Interaction,
    InteractionTerm,
    commutation_degree,
    layer_coloring,
    phi_bounds,
    reduce_to_projectors,
    support_overlap_degree,
    validate,
)
from gapcert.lattice import chain_graph, grid_graph
from gapcert.models import commuting_toy, heisenberg_fm

from conftest import singlet_4x4


def _counted(real, calls, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    return wrapper


def edge_terms(matrix, n):
    return Interaction(
        [InteractionTerm((i, i + 1), matrix) for i in range(n - 1)], R=1.0, d=int(round(matrix.shape[0] ** 0.5))
    )


class TestReduceToProjectors:
    def test_rank_one_rescaling(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        term = InteractionTerm((0, 1), 2.0 * np.outer(psi, psi))
        phi = Interaction([term], R=1.0, d=2)
        red = reduce_to_projectors(phi)
        assert np.allclose(red.terms[0].matrix, np.outer(psi, psi), atol=1e-12)

    def test_eigenvalue_thresholding(self):
        term = InteractionTerm((0,), np.diag([0.0, 0.5, 2.0]))
        red = reduce_to_projectors(Interaction([term], R=0.0, d=3))
        assert np.allclose(red.terms[0].matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_projector_unchanged(self):
        phi = heisenberg_fm(chain_graph(3))
        red = reduce_to_projectors(phi)
        for t_old, t_new in zip(phi.terms, red.terms):
            assert np.allclose(t_old.matrix, t_new.matrix, atol=1e-12)

    def test_zero_terms_dropped(self):
        terms = [
            InteractionTerm((0, 1), singlet_4x4()),
            InteractionTerm((1, 2), np.zeros((4, 4))),
        ]
        red = reduce_to_projectors(Interaction(terms, R=1.0, d=2))
        assert len(red.terms) == 1

    def test_negative_eigenvalue_rejected(self):
        term = InteractionTerm((0,), np.diag([-1.0, 1.0]))
        with pytest.raises(InteractionError, match="negative eigenvalue"):
            reduce_to_projectors(Interaction([term], R=0.0, d=2))

    def test_each_term_projected_once(self, monkeypatch):
        g = chain_graph(4)
        phi = heisenberg_fm(g)
        calls = {"eigh": 0, "eigvalsh": 0}
        for module, name in ((np.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, _counted(real, calls, name))
        first = reduce_to_projectors(phi)
        again = reduce_to_projectors(Interaction(phi.terms[1:], R=1.0, d=2))
        assert calls == {"eigh": 3, "eigvalsh": 0}
        assert again.terms == first.terms[1:]
        # every other per-term question reads the same decomposition, and a
        # projector term reads its parent's: one eigh per term in all
        for interaction in (phi, first):
            phi_bounds(interaction)
            validate(interaction, g)
            layer_coloring(interaction)
            support_overlap_degree(interaction)
        reduce_to_projectors(first)
        assert calls == {"eigh": 3, "eigvalsh": 0}
        # the region solves read each term's norm and PSD check off it too,
        # on the dense and the sparse path (dim 16), and on the diagonal one
        toy = commuting_toy(chain_graph(4))
        reduce_to_projectors(toy)
        assert calls == {"eigh": 6, "eigvalsh": 0}
        cases = [(operators.DENSE_CAP, phi, "dense"), (operators.DENSE_CAP, first, "dense"),
                 (8, phi, "sparse"), (8, first, "sparse"), (8, toy, "diagonal")]
        for dense_cap, interaction, solver in cases:
            monkeypatch.setattr(operators, "DENSE_CAP", dense_cap)
            H = operators.hamiltonian(interaction, tuple(range(4)))
            assert operators.spectral_data(H).solver == solver
        assert calls == {"eigh": 6, "eigvalsh": 0}

    @pytest.mark.parametrize(
        "matrix, message",
        [(np.diag([-1.0, 1.0]), "negative eigenvalue"), (np.zeros((2, 2)), "empty interaction")],
    )
    def test_rejected_on_every_call(self, matrix, message):
        phi = Interaction([InteractionTerm((0,), matrix)], R=0.0, d=2)
        for _ in range(2):
            with pytest.raises(InteractionError, match=message):
                reduce_to_projectors(phi)

    def test_result_is_idempotent_and_unit_bounds(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        term = InteractionTerm((0, 1), a @ a.T)  # PSD, generic spectrum
        red = reduce_to_projectors(Interaction([term], R=1.0, d=2))
        m = red.terms[0].matrix
        assert np.linalg.norm(m @ m - m, 2) <= 1e-10
        assert np.linalg.norm(m - m.conj().T, 2) <= 1e-12
        assert phi_bounds(red) == (pytest.approx(1.0), pytest.approx(1.0))


class TestPhiBounds:
    def test_all_projectors(self):
        phi = heisenberg_fm(chain_graph(4))
        assert phi_bounds(phi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_read_off_spectrum(self):
        phi = Interaction([InteractionTerm((0,), np.diag([0.0, 0.5, 2.0]))], R=0.0, d=3)
        mx, mn = phi_bounds(phi)
        assert mx == pytest.approx(2.0)
        assert mn == pytest.approx(0.5)

    def test_mixed_terms(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        terms = [
            InteractionTerm((0,), np.diag([0.0, 1.0])),
            InteractionTerm((1, 2), 3.0 * np.outer(psi, psi)),
        ]
        mx, mn = phi_bounds(Interaction(terms, R=1.0, d=2))
        assert (mx, mn) == (pytest.approx(3.0), pytest.approx(1.0))

    def test_empty_interaction(self):
        with pytest.raises(InteractionError, match="empty interaction"):
            phi_bounds(Interaction([InteractionTerm((0,), np.zeros((2, 2)))], R=0.0, d=2))

    def test_sandwich_per_term(self):
        # phi_min * h <= term <= phi_max * h as PSD inequalities
        rng = np.random.default_rng(11)
        terms = []
        for i in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            term = q @ np.diag([0.0, 0.4 + 0.2 * i, 1.0 + i, 2.0]) @ q.T
            terms.append(InteractionTerm((i, i + 1), term))
        phi = Interaction(terms, R=1.0, d=2)
        red = reduce_to_projectors(phi)
        mx, mn = phi_bounds(phi)
        for t_raw, t_proj in zip(phi.terms, red.terms):
            upper = np.linalg.eigvalsh(mx * t_proj.matrix - t_raw.matrix).min()
            lower = np.linalg.eigvalsh(t_raw.matrix - mn * t_proj.matrix).min()
            assert upper >= -1e-10
            assert lower >= -1e-10


class TestLayerColoring:
    def test_single_term(self):
        phi = Interaction([InteractionTerm((0, 1), singlet_4x4())], R=1.0, d=2)
        assert layer_coloring(phi).L == 1

    def test_chain_two_layers(self):
        col = layer_coloring(heisenberg_fm(chain_graph(8)))
        assert col.L == 2

    def test_grid_four_layers(self):
        col = layer_coloring(heisenberg_fm(grid_graph(3, 3)))
        assert col.L == 4

    def test_layers_have_disjoint_supports(self):
        phi = heisenberg_fm(grid_graph(4, 3))
        col = layer_coloring(phi)
        for layer in col.layers():
            for i, a in enumerate(layer):
                for b in layer[i + 1:]:
                    assert not (set(phi.terms[a].support) & set(phi.terms[b].support))

    def test_within_shannon_bound(self):
        for g in (chain_graph(9), grid_graph(4, 4), grid_graph(3, 3)):
            phi = heisenberg_fm(g)
            col = layer_coloring(phi)
            assert col.L <= col.shannon_bound

    def test_deterministic(self):
        phi = heisenberg_fm(grid_graph(4, 4))
        a = layer_coloring(phi)
        b = layer_coloring(phi)
        assert a.assignment == b.assignment


class TestCommutationDegree:
    def test_single_term(self):
        phi = Interaction([InteractionTerm((0, 1), singlet_4x4())], R=1.0, d=2)
        assert commutation_degree(phi) == 0

    def test_heisenberg_interior_edge(self):
        assert commutation_degree(heisenberg_fm(chain_graph(6))) == 2

    def test_commuting_toy_vanishes(self):
        assert commutation_degree(commuting_toy(10)) == 0

    def test_never_exceeds_overlap_count(self):
        for phi in (heisenberg_fm(chain_graph(7)), heisenberg_fm(grid_graph(3, 3)), commuting_toy(8)):
            assert commutation_degree(phi) <= support_overlap_degree(phi)

    def test_support_overlap_degree(self):
        toy = commuting_toy(8)
        assert support_overlap_degree(toy) == 2


class TestValidate:
    def test_valid_model_passes(self):
        g = chain_graph(5)
        validate(heisenberg_fm(g), g)

    def test_range_violation(self):
        g = chain_graph(5)
        term = InteractionTerm((0, 4), np.eye(4))
        with pytest.raises(InteractionError, match="diameter"):
            validate(Interaction([term], R=1.0, d=2), g)

    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(InteractionError, match="Hermitian"):
            validate(Interaction([InteractionTerm((0, 1), m)], R=1.0, d=2))

    def test_checked_where_the_term_is_made(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(InteractionError, match=r"term on \(0, 1\): matrix is not Hermitian"):
            InteractionTerm((0, 1), m)

    def test_term_is_frozen(self):
        # its spectrum is cached on first read, so the matrix must not move
        # away from it
        term = InteractionTerm((0,), np.diag([0.0, 1.0]))
        assert term.norm == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            term.matrix = 2 * term.matrix

    def test_non_square_matrix_gets_the_shape_error(self):
        term = InteractionTerm((0,), np.zeros((2, 3)))
        with pytest.raises(InteractionError, match=r"matrix shape \(2, 3\) does not match d\^1"):
            Interaction([term], R=0.0, d=2)
