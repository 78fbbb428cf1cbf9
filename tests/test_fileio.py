import numpy as np
import pytest

from gapcert.certification import DEFAULT_DIM_CAP, DEFAULT_GAP_FLOOR
from gapcert.errors import ConfigError, GraphError, InteractionError
from gapcert.fileio import (
    CONFIG_KEYS,
    RunConfig,
    format_graph,
    format_interaction,
    parse_config,
    parse_graph,
    parse_interaction,
)
from gapcert.lattice import graph_distance, grid_graph
from gapcert.models import heisenberg_fm


GRAPH_TEXT = """
# a 4-cycle in the plane
dim 2
c_gamma 1.5
vertex 0 0.0 0.0
vertex 1 1.0 0.0
vertex 2 1.0 1.0
vertex 3 0.0 1.0
edge 0 1
edge 1 2
edge 2 3
edge 3 0
"""


class TestGraphFormat:
    def test_parse_cycle(self):
        g = parse_graph(GRAPH_TEXT)
        assert g.D == 2
        assert g.c_gamma == 1.5
        assert len(g) == 4
        assert graph_distance(g, 0, 2) == 2

    def test_round_trip(self):
        g = grid_graph(3, 4)
        g2 = parse_graph(format_graph(g))
        assert g2.ids == g.ids
        assert np.allclose(g2.coords, g.coords)
        assert g2.adjacency == g.adjacency
        assert g2.c_gamma == g.c_gamma

    def test_missing_dim(self):
        with pytest.raises(GraphError, match="missing 'dim'"):
            parse_graph("vertex 0 0.0\n")

    def test_unknown_directive(self):
        with pytest.raises(GraphError, match="unknown graph directive"):
            parse_graph("dim 1\nnode 0 0.0\n")

    def test_bad_edge_endpoint(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            parse_graph("dim 1\nvertex 0 0.0\nedge 0 7\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            parse_graph("dim 1\nvertex 0 0.0\nvertex 0 1.0\n")

    @pytest.mark.parametrize("line", ["c_gamma nan", "c_gamma inf", "vertex 1 nan", "vertex 1 -inf"])
    def test_non_finite_number(self, line):
        with pytest.raises(GraphError, match=f"malformed line '{line}': .* is not finite"):
            parse_graph(f"dim 1\nvertex 0 0.0\n{line}\n")


class TestInteractionFormat:
    def test_named_model(self):
        phi, model, params = parse_interaction("model heisenberg_fm\nparam rank 2\n")
        assert phi is None
        assert model == "heisenberg_fm"
        assert params == {"rank": 2.0}

    def test_explicit_terms_round_trip(self):
        phi = heisenberg_fm(grid_graph(2, 2))
        text = format_interaction(phi)
        phi2, model, _ = parse_interaction(text)
        assert model is None
        assert phi2.d == phi.d and phi2.R == phi.R
        assert len(phi2.terms) == len(phi.terms)
        for a, b in zip(phi.terms, phi2.terms):
            assert a.support == b.support
            assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_complex_entries_survive(self):
        m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        from gapcert.interaction import Interaction, InteractionTerm

        phi = Interaction([InteractionTerm((0,), m)], R=0.0, d=2)
        phi2, _, _ = parse_interaction(format_interaction(phi))
        assert np.allclose(phi2.terms[0].matrix, m, atol=1e-15)

    def test_mixing_model_and_terms_rejected(self):
        text = "d 2\nrange 1\nmodel aklt\nterm 0\n1,0 0,0\n0,0 1,0\n"
        with pytest.raises(InteractionError, match="mixes"):
            parse_interaction(text)

    def test_wrong_row_width(self):
        text = "d 2\nrange 1\nterm 0\n1,0\n0,0 1,0\n"
        with pytest.raises(InteractionError, match="expected 2"):
            parse_interaction(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("d 2\nrange nan\nmodel aklt\n", "range nan"),
            ("model low_rank\nparam rank inf\n", "param rank inf"),
            ("d 2\nrange 1\nterm 0\nnan,0 0,0\n0,0 1,0\n", "nan,0 0,0"),
            ("d 2\nrange 1\nterm 0\n1,0 0,0\n0,0 1,inf\n", "0,0 1,inf"),
        ],
    )
    def test_non_finite_number(self, text, line):
        with pytest.raises(InteractionError, match=f"malformed line '{line}': .* is not finite"):
            parse_interaction(text)


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config("schema_version 1\nmodel aklt\nlength 6\n")
        assert cfg.model == "aklt"
        assert cfg.length == 6
        assert cfg.t == 2.0  # default
        assert cfg.seed == 1234

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("schema_version 1\nmodle aklt\n")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config("model aklt\n")

    def test_wrong_version(self):
        with pytest.raises(ConfigError, match="unsupported schema_version"):
            parse_config("schema_version 99\n")

    def test_override(self):
        cfg = parse_config("schema_version 1\nlength 6\nseed 1\n")
        cfg.update(seed=7)
        assert cfg.seed == 7
        with pytest.raises(ConfigError):
            cfg.update(bogus=1)

    @pytest.mark.parametrize("key, value", [("t", "nan"), ("t", "inf"), ("gap_floor", "-inf")])
    def test_non_finite_setting(self, key, value):
        with pytest.raises(ConfigError, match=f"malformed line '{key} {value}'"):
            parse_config(f"schema_version 1\n{key} {value}\n")
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            RunConfig().update(**{key: float(value)})

    def test_defaults_come_from_the_library(self):
        assert CONFIG_KEYS["dim_cap"][1] == DEFAULT_DIM_CAP == 2 ** 14
        assert CONFIG_KEYS["gap_floor"][1] == DEFAULT_GAP_FLOOR == 0.05
