import numpy as np
import pytest

from gapcert.cli import EXIT_CODES, main
from gapcert.fileio import format_interaction
from gapcert.interaction import Interaction, InteractionTerm

from conftest import dense_chain_hamiltonian, dense_gap, singlet_4x4


def run(args):
    return main(args)


class TestGapCommand:
    def test_two_site_chain(self, capsys):
        code = run(["gap", "--model", "heisenberg_fm", "--length", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap 1" in out
        assert "kernel dim 3" in out

    def test_ten_site_matches_oracle_csv(self, tmp_path, capsys):
        csv = tmp_path / "gap.csv"
        code = run(["gap", "--model", "heisenberg_fm", "--length", "10", "--out-csv", str(csv)])
        assert code == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "region_size,hilbert_dim,kernel_dim,gap"
        gap = float(rows[1].split(",")[3])
        oracle = dense_gap(dense_chain_hamiltonian(10, singlet_4x4()))
        assert abs(gap - oracle) <= 1e-9 * oracle

    def test_oversized_region_exit_code(self, capsys):
        code = run(["gap", "--model", "heisenberg_fm", "--length", "40"])
        err = capsys.readouterr().err
        assert code == EXIT_CODES["too_large"]
        assert "region too large" in err

    def test_missing_geometry_is_config_error(self, capsys):
        code = run(["gap", "--model", "heisenberg_fm"])
        assert code == EXIT_CODES["config"]

    def test_krylov_basis_out_of_memory_is_too_large(self, capsys, monkeypatch):
        from gapcert import _tensor, operators

        real = np.empty

        def no_memory(shape, *args, **kwargs):
            if kwargs.get("order") == "F" and shape == (2048, _tensor.LANCZOS_CHECK_STEPS):
                raise MemoryError  # a block of the gap Lanczos basis, and nothing else
            return real(shape, *args, **kwargs)

        def grown_kernel_out_of_memory(*args):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        argv = ["gap", "--model", "heisenberg_fm", "--length", "11"]  # dim 2048: sparse
        with monkeypatch.context() as mp:
            mp.setattr(np, "empty", no_memory)
            assert run(argv) == EXIT_CODES["too_large"]
        err = capsys.readouterr().err
        assert err == "error: region too large: out of memory\n"
        monkeypatch.setattr(operators, "_grown_kernel", grown_kernel_out_of_memory)
        assert run(argv) == EXIT_CODES["too_large"]
        err = capsys.readouterr().err
        assert err == "error: region too large: out of memory: Unable to allocate 2.00 GiB for an array\n"

    def test_gap_non_convergence_is_solver_exit(self, capsys, perturbed_gap_ritz_vector):
        code = run(["gap", "--model", "heisenberg_fm", "--length", "11"])  # dim 2048: sparse
        assert code == EXIT_CODES["solver"]
        assert "eigensolver failed on the gap" in capsys.readouterr().err


class TestDLCheckCommand:
    def test_commuting_toy_passes_with_flag(self, capsys, tmp_path):
        js = tmp_path / "dl.json"
        code = run(
            ["dl-check", "--model", "commuting_toy", "--length", "12", "--t", "4",
             "--out-json", str(js)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "g=0 -> conservative g=1" in out
        assert js.exists()

    def test_fm_chain_emits_overlap_triple(self, capsys):
        code = run(
            ["dl-check", "--model", "heisenberg_fm", "--length", "12", "--t", "2",
             "--k-min", "6", "--s", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overlap[0]" in out
        assert "lhs" in out and "mid" in out

    def test_small_t_rejected(self, capsys):
        code = run(["dl-check", "--model", "heisenberg_fm", "--length", "10", "--t", "1"])
        assert code == EXIT_CODES["config"]

    def test_conservative_g_flag(self, capsys):
        code = run(
            ["dl-check", "--model", "commuting_toy", "--length", "10", "--t", "4",
             "--conservative-g"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[support-overlap g]" in out

    def test_json_overlap_triples(self, tmp_path):
        import json

        js = tmp_path / "dl.json"
        code = run(
            ["dl-check", "--model", "commuting_toy", "--length", "12", "--t", "2",
             "--k-min", "6", "--s", "1", "--out-json", str(js)]
        )
        assert code == 0
        payload = json.loads(js.read_text())
        assert "overlap_0" in payload
        assert set(payload["overlap_0"]) >= {"lhs", "mid", "rhs"}

    def test_dl_check_solves_no_region_twice(self, monkeypatch, capsys):
        from gapcert import operators

        keys = []
        solve = operators._region_solve

        def recording(H, *args, **kwargs):
            m = H.matrix.tocsr(copy=True)
            m.sum_duplicates()
            keys.append((H.region, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()))
            return solve(H, *args, **kwargs)

        monkeypatch.setattr(operators, "_region_solve", recording)
        code = run(
            ["dl-check", "--model", "heisenberg_fm", "--length", "12", "--t", "2",
             "--k-min", "6", "--s", "1"]
        )
        assert code == 0
        assert keys and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("flag", [[], ["--conservative-g"]])
    def test_overlap_rhs_uses_the_run_g(self, flag, tmp_path):
        import json

        js = tmp_path / "dl.json"
        code = run(
            ["dl-check", "--model", "commuting_toy", "--length", "13", "--t", "4",
             "--k-min", "6", "--s", "1", "--out-json", str(js)] + flag
        )
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["overlap_0"]["rhs"] == pytest.approx(3 * payload["refined_bound"], rel=1e-12)

    def test_overlap_row_across_the_axis(self, tmp_path):
        # on the 2x4 grid the one split at k = 11 runs along axis 1: with
        # --alpha 0, its row needs its own axis's columns and ||DL P_perp||
        import json

        payloads = []
        for alpha in ("0", "1"):
            js = tmp_path / f"grid24a{alpha}.json"
            code = run(
                ["dl-check", "--model", "heisenberg_fm", "--grid", "2x4", "--t", "2",
                 "--alpha", alpha, "--k-min", "11", "--s", "1", "--out-json", str(js)]
            )
            assert code == 0
            payloads.append(json.loads(js.read_text()))
        a0, a1 = payloads
        assert a0["overlap_0"] == a1["overlap_0"]
        # A and B of 6 sites sharing 4: sqrt((6-4)(6-4) / (6*6))
        assert abs(a0["overlap_0"]["lhs"] - 1 / 3) <= 1e-12
        assert all(c["ok"] for p in payloads for c in p["checks"])
        # the battery's own ||DL P_perp|| would not bound this row's lhs
        assert a0["dl_perp"] <= 1e-12


    def test_toy_at_the_dl_cap_allocates_one_full_length_vector(self, tmp_path, capsys):
        # 2^20 = DL_DIM_CAP: the H diagonal (8 MiB) is the one vector of that
        # length; an assembled H and full-length norm vectors took 49 MiB
        import json
        import tracemalloc

        js = tmp_path / "toy20.json"
        tracemalloc.start()
        try:
            code = run(
                ["dl-check", "--model", "commuting_toy", "--length", "20", "--t", "4",
                 "--out-json", str(js)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = json.loads(js.read_text())
        assert all(c["ok"] for c in payload["checks"])
        assert payload["dl_perp"] == 0.0
        assert peak < 24 * 2 ** 20

    @pytest.mark.parametrize(
        "model, n", [("heisenberg_fm", 5), ("heisenberg_fm", 4), ("commuting_toy", 5)]
    )
    def test_small_region_battery_passes(self, model, n, capsys):
        # dim <= 32: every norm, the insertion identity's included, goes dense
        code = run(["dl-check", "--model", model, "--length", str(n), "--t", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 8


class TestCertifyCommand:
    def test_commuting_toy_positive_bound(self, capsys, tmp_path):
        csv = tmp_path / "cert.csv"
        code = run(
            ["certify", "--model", "commuting_toy", "--length", "13",
             "--k-min", "6", "--k-max", "6", "--s-rule", "power:1.25",
             "--out-csv", str(csv)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "certified lower bound" in out
        bound = float(out.split("certified lower bound:")[1].split()[0])
        assert bound > 0.0
        header, row = csv.read_text().splitlines()
        assert header == "k,l_k,region_size,hilbert_dim,gap,delta_k,factor,running_lower_bound,sampled"
        assert row.endswith(",0")  # every window of scale 6 was tested

    def test_window_without_a_gap_is_an_error(self, monkeypatch, capsys):
        # lambda_k is read from the windows' gaps: a solve with none is not
        # replaced by 1, the run stops and names the window
        import dataclasses

        from gapcert import certification

        solve = certification.spectral_data
        monkeypatch.setattr(
            certification, "spectral_data",
            lambda *a, **kw: dataclasses.replace(solve(*a, **kw), gap=None),
        )
        code = run(
            ["certify", "--model", "commuting_toy", "--length", "13",
             "--k-min", "6", "--k-max", "6", "--s-rule", "power:1.25"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CODES["not_certifiable"]
        assert "certified lower bound" not in captured.out
        assert "has no gap" in captured.err and "window (0, 1, 2" in captured.err

    def test_fm_chain_not_certifiable(self, capsys):
        code = run(
            ["certify", "--model", "heisenberg_fm", "--length", "13",
             "--k-min", "6", "--k-max", "6", "--s", "1"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CODES["not_certifiable"]
        assert "delta_k=" in out  # the trend is shown
        assert "not certifiable" in out

    def test_skipped_windows_flagged_sampled(self, capsys, tmp_path):
        csv = tmp_path / "cert.csv"
        code = run(
            ["certify", "--model", "commuting_toy", "--length", "16",
             "--k-min", "6", "--k-max", "6", "--s", "1", "--dim-cap", str(2 ** 13),
             "--out-csv", str(csv)]
        )
        assert code == EXIT_CODES["not_certifiable"]
        assert "[sampled]" in capsys.readouterr().out
        header, row = csv.read_text().splitlines()
        assert header.endswith(",sampled") and row.endswith(",1")

    def test_window_of_zero_terms_is_passed_over(self, capsys, tmp_path):
        # |11><11| on bonds 17 and 18 and zero matrices on the others: a
        # window of zero terms has the identity as its ground projector, and
        # is passed over as a window without terms is
        one = np.diag([0.0, 0.0, 0.0, 1.0])
        terms = [InteractionTerm((i, i + 1), one if i in (17, 18) else np.zeros((4, 4)))
                 for i in range(19)]
        path = tmp_path / "phi.txt"
        path.write_text(format_interaction(Interaction(terms, R=1.0, d=2)))
        code = run(["certify", "--length", "20", "--k-min", "6", "--k-max", "6", "--s", "1",
                    "--interaction-file", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_CODES["not_certifiable"]
        assert "delta_k=0.000000" in out and "pairs=2 " in out

    def test_empty_k_range_usage_error(self, capsys):
        code = run(
            ["certify", "--model", "commuting_toy", "--length", "12",
             "--k-min", "7", "--k-max", "6"]
        )
        assert code == EXIT_CODES["config"]

    @pytest.mark.parametrize("rule", ["power:400", "power:1e308"])
    def test_overflowing_power_rule_is_clipped(self, rule, capsys):
        # k^B overflows a float: s_k is +inf before the clip to l_k / 8
        code = run(
            ["certify", "--model", "commuting_toy", "--length", "13",
             "--k-min", "6", "--k-max", "6", "--s-rule", rule]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "s_k=1 " in out  # int(l_6 / 8) = 1
        assert "certified lower bound" in out


class TestScalingCommand:
    def test_fm_sweep_exponent(self, capsys, tmp_path):
        csv = tmp_path / "scale.csv"
        code = run(
            ["scaling", "--model", "heisenberg_fm", "--sizes", "4:10",
             "--out-csv", str(csv)]
        )
        out = capsys.readouterr().out
        assert code == 0
        exponent = float(out.split("exponent")[1].split()[0])
        assert -2.3 <= exponent <= -1.7
        assert "inverse-square-compatible" in out

    def test_aklt_gapped(self, capsys):
        code = run(["scaling", "--model", "aklt", "--sizes", "4,5,6,7,8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gapped" in out

    @pytest.mark.parametrize("sizes", ["4", "4,4,4"])
    def test_single_point_insufficient(self, sizes, capsys):
        # repeated sizes are one x value: no line to fit
        code = run(["scaling", "--model", "heisenberg_fm", "--sizes", sizes])
        assert code == EXIT_CODES["not_certifiable"]
        assert "insufficient data" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run(
                ["scaling", "--model", "heisenberg_fm", "--sizes", "4:8",
                 "--out-csv", str(path), "--seed", "99"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize(
        "flag, value", [("--interaction-file", "/nonexistent"), ("--graph-file", "g.txt"),
                        ("--grid", "4x3")]
    )
    def test_unsupported_geometry_flags_rejected(self, flag, value, capsys):
        code = run(["scaling", "--sizes", "4:6", flag, value])
        assert code == EXIT_CODES["config"]
        assert flag in capsys.readouterr().err


    def test_length_rejected(self, capsys):
        code = run(["scaling", "--sizes", "4:6", "--length", "5"])
        assert code == EXIT_CODES["config"]
        assert "--length" in capsys.readouterr().err


class TestOtherCommands:
    def test_coloring_reports(self, capsys):
        code = run(["coloring", "--model", "heisenberg_fm", "--grid", "3x3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "layers L = 4" in out
        assert "commutation degree" in out

    def test_validate_graph_file(self, capsys, tmp_path):
        from gapcert.fileio import format_graph
        from gapcert.lattice import grid_graph

        path = tmp_path / "g.txt"
        path.write_text(format_graph(grid_graph(3, 3)))
        code = run(["validate", "--graph-file", str(path), "--model", "commuting_toy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "embedding: ok" in out
        assert "frustration-free on the full region: True" in out

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("schema_version 1\nmodel heisenberg_fm\nlength 2\n")
        code = run(["gap", "--config", str(cfg), "--length", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "region size 3" in out


ZERO_ROW = "0,0 0,0 0,0 0,0"


class TestInputFileErrors:
    @pytest.mark.parametrize(
        "flag, name, text, message",
        [
            ("--config", "missing.cfg", None, "missing.cfg"),
            ("--graph-file", "missing.txt", None, "missing.txt"),
            ("--interaction-file", "missing.txt", None, "missing.txt"),
            ("--graph-file", "g.txt", "dim 1\nvertex 0 zero\n", "vertex 0 zero"),
            ("--graph-file", "g.txt", "dim\n", "'dim'"),
            ("--config", "run.cfg", "schema_version 1\nrank abc\n", "rank abc"),
            ("--interaction-file", "phi.txt",
             "d 2\nrange 1\nterm 0 1\nx,0 0,0 0,0 0,0\n" + 3 * (ZERO_ROW + "\n"),
             "x,0 0,0 0,0 0,0"),
        ],
        ids=["missing-config", "missing-graph", "missing-interaction", "graph-bad-float",
             "graph-bare-dim", "config-bad-int", "interaction-bad-entry"],
    )
    def test_bad_input_file_is_config_exit(self, flag, name, text, message, tmp_path, capsys):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        code = run(["gap", "--model", "heisenberg_fm", "--length", "3", flag, str(path)])
        assert code == EXIT_CODES["config"]
        assert message in capsys.readouterr().err


GEOMETRY = ["--model", "heisenberg_fm", "--length", "4"]


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("gap", "--workers", "3"),
            ("gap", "--out-json", "x.json"),
            ("dl-check", "--dim-cap", "4"),
            ("dl-check", "--workers", "3"),
            ("dl-check", "--out-csv", "z.csv"),
            ("certify", "--workers", "3"),
            ("certify", "--out-json", "x.json"),
            ("scaling", "--out-json", "x.json"),
            ("scaling", "--workers", "2"),
            ("coloring", "--dense-cap", "2"),
            ("coloring", "--dim-cap", "4"),
            ("coloring", "--workers", "3"),
            ("coloring", "--out-csv", "y.csv"),
            ("coloring", "--out-json", "x.json"),
            ("validate", "--workers", "3"),
            ("validate", "--out-csv", "y.csv"),
            ("validate", "--out-json", "x.json"),
        ],
    )
    def test_unread_flag_is_usage_error(self, command, flag, value, tmp_path, capsys):
        if value.endswith(("csv", "json")):
            value = str(tmp_path / value)
        with pytest.raises(SystemExit) as exc:
            run([command, *GEOMETRY, flag, value])
        assert exc.value.code == EXIT_CODES["usage"]
        assert not list(tmp_path.iterdir())


# config keys whose flag each subcommand lacks, with a value each key accepts
UNREAD_CONFIG_KEYS = {
    "gap": "alpha axis_perms conservative_g gap_floor k_max k_min out_json s s_rule sizes t",
    "dl-check": "axis_perms dim_cap gap_floor k_max out_csv s_rule sizes",
    "certify": "alpha conservative_g gap_floor out_json sizes t",
    "scaling": "alpha axis_perms conservative_g k_max k_min out_json s s_rule t",
    "coloring": "alpha axis_perms conservative_g dim_cap gap_floor k_max k_min out_csv out_json "
                "s s_rule sizes t",
    "validate": "alpha axis_perms conservative_g gap_floor k_max k_min out_csv out_json s s_rule "
                "sizes t",
}
CONFIG_VALUES = {
    "alpha": "0", "axis_perms": "1", "conservative_g": "1", "dim_cap": "4096",
    "gap_floor": "0.05", "k_max": "6", "k_min": "6", "out_csv": "y.csv", "out_json": "x.json",
    "s": "1", "s_rule": "const:1", "sizes": "4:6", "t": "2",
}


class TestConfigKeys:
    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, keys in UNREAD_CONFIG_KEYS.items() for k in keys.split()],
    )
    def test_unread_key_is_config_error(self, command, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        geometry = "" if command == "scaling" else "length 4\n"
        cfg.write_text(f"schema_version 1\nmodel heisenberg_fm\n{geometry}"
                       f"{key} {CONFIG_VALUES[key]}\n")
        code = run([command, "--config", str(cfg)])
        assert code == EXIT_CODES["config"]
        assert f"config keys not read by {command}: {key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


COMMANDS = ["gap", "dl-check", "certify", "scaling", "coloring", "validate"]


class TestNoDenseCap:
    """Deleted knobs: the region solve picks its solver from the region, and
    scaling solves its sizes in order; no flag or config key sets either."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dense_cap_flag_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, *GEOMETRY, "--dense-cap", "64"])
        assert exc.value.code == EXIT_CODES["usage"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dense_cap_config_key_is_unknown(self, command, tmp_path, capsys):
        _assert_unknown_config_key(command, "dense_cap 64", tmp_path, capsys)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_workers_config_key_is_unknown(self, command, tmp_path, capsys):
        # scaling solves its sizes in order: there is no worker pool to size
        _assert_unknown_config_key(command, "workers 2", tmp_path, capsys)


def _assert_unknown_config_key(command, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"schema_version 1\nmodel heisenberg_fm\nlength 4\n{line}\n")
    code = run([command, "--config", str(cfg)])
    assert code == EXIT_CODES["config"]
    assert f"unknown config key: {line.split()[0]}" in capsys.readouterr().err


CERTIFY_ARGS = ["--model", "heisenberg_fm", "--length", "12", "--k-min", "6", "--k-max", "6"]
MALFORMED_VALUES = [
    ("gap", ["--model", "heisenberg_fm"], "grid", "4x"),
    ("gap", ["--model", "heisenberg_fm"], "grid", "abc"),
    ("scaling", [], "sizes", "4:"),
    ("scaling", [], "sizes", "a,b"),
    ("certify", CERTIFY_ARGS, "s_rule", "power:x"),
    ("certify", CERTIFY_ARGS, "s_rule", "power:nan"),
    ("certify", CERTIFY_ARGS, "s_rule", "const:"),
]


class TestMalformedValues:
    @pytest.mark.parametrize("command, args, key, value", MALFORMED_VALUES)
    def test_flag_value_is_config_exit(self, command, args, key, value, capsys):
        flag = "--" + key.replace("_", "-")
        code = run([command, *args, flag, value])
        assert code == EXIT_CODES["config"]
        assert f"malformed {flag} (config key {key}) value '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args, key, value", MALFORMED_VALUES)
    def test_config_value_is_config_exit(self, command, args, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"schema_version 1\n{key} {value}\n")
        code = run([command, "--config", str(cfg), *args])
        assert code == EXIT_CODES["config"]
        assert f"(config key {key}) value '{value}'" in capsys.readouterr().err


def _term_file(entry: str) -> str:
    return f"d 2\nrange 1\nterm 0 1\n{entry} 0,0 0,0 0,0\n" + 3 * (ZERO_ROW + "\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "command, length, flag, text, message",
        [
            ("gap", "9", "--interaction-file", _term_file("nan,0"), "nan,0 0,0"),
            ("gap", "10", "--interaction-file", _term_file("inf,0"), "inf,0 0,0"),
            ("gap", "10", "--interaction-file", _term_file("0,-inf"), "0,-inf 0,0"),
            ("validate", "4", "--interaction-file", _term_file("nan,0"), "nan,0 0,0"),
            ("dl-check", "8", "--interaction-file", "d 2\nrange nan\nmodel heisenberg_fm\n",
             "range nan"),
            ("dl-check", "8", "--interaction-file", "model low_rank\nparam rank nan\n",
             "param rank nan"),
            ("dl-check", None, "--graph-file", "dim 1\nc_gamma nan\nvertex 0 0\nvertex 1 1\n"
             "edge 0 1\n", "c_gamma nan"),
            ("validate", None, "--graph-file", "dim 1\nc_gamma nan\nvertex 0 0\n", "c_gamma nan"),
            ("validate", None, "--graph-file", "dim 1\nvertex 0 0\nvertex 1 nan\nedge 0 1\n",
             "vertex 1 nan"),
        ],
        ids=["term-nan-dense", "term-inf-sparse", "term-imag-inf", "validate-term", "range",
             "param", "dl-check-c-gamma", "validate-c-gamma", "validate-vertex"],
    )
    def test_input_file_is_config_exit(self, command, length, flag, text, message, tmp_path,
                                       capsys):
        path = tmp_path / "input.txt"
        path.write_text(text)
        geometry = ["--length", length] if length else []
        model = [] if flag == "--interaction-file" else ["--model", "heisenberg_fm"]
        code = run([command, *model, *geometry, flag, str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CODES["config"]
        assert message in err and "is not finite" in err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["dl-check", *GEOMETRY, "--t", "nan"], None, "t must be a finite number, got nan"),
            (["dl-check", *GEOMETRY, "--t", "inf"], None, "t must be a finite number, got inf"),
            (["dl-check"], "t nan", "'t nan': t must be a finite number"),
            (["scaling", "--sizes", "4:6", "--gap-floor", "nan"], None,
             "gap_floor must be a finite number, got nan"),
            (["scaling", "--sizes", "4:6"], "gap_floor -inf", "'gap_floor -inf'"),
        ],
        ids=["t-nan", "t-inf", "config-t-nan", "gap-floor-nan", "config-gap-floor-inf"],
    )
    def test_setting_is_config_exit(self, argv, config, message, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            geometry = "" if argv[0] == "scaling" else "model heisenberg_fm\nlength 4\n"
            cfg.write_text(f"schema_version 1\n{geometry}{config}\n")
            argv = argv + ["--config", str(cfg)]
        code = run(argv)
        assert code == EXIT_CODES["config"]
        assert message in capsys.readouterr().err


NOT_PSD_BOND = np.diag([-0.3, 0.2, 0.2, -0.3])
NOT_PSD_BOND[1, 2] = NOT_PSD_BOND[2, 1] = -0.5  # the singlet projector minus 0.3


def _not_psd_chain_file(path, n, extra=()):
    terms = [InteractionTerm((i, i + 1), NOT_PSD_BOND if i == 0 else singlet_4x4())
             for i in range(n - 1)] + list(extra)
    path.write_text(format_interaction(Interaction(terms, R=1.0, d=2)))
    return path


class TestNotPositiveSemidefinite:
    @pytest.mark.parametrize("length", [10, 11], ids=["dense", "sparse"])
    def test_gap_exits_config(self, length, tmp_path, capsys):
        path = _not_psd_chain_file(tmp_path / "phi.txt", length)
        code = run(["gap", "--length", str(length), "--interaction-file", str(path)])
        assert code == EXIT_CODES["config"]
        assert "not positive semidefinite" in capsys.readouterr().err

    def test_gap_exits_config_below_dense_cap(self, tmp_path, capsys):
        path = _not_psd_chain_file(tmp_path / "phi.txt", 9)  # dim 512: the dense solve
        code = run(["gap", "--length", "9", "--interaction-file", str(path)])
        assert code == EXIT_CODES["config"]
        assert "not positive semidefinite" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [9, 11], ids=["dim512", "dim2048"])
    def test_non_psd_term_of_a_psd_sum_exits_config(self, length, tmp_path, capsys):
        # NOT_PSD_BOND plus 0.3 on the same bond sum to the FM chain, which is
        # PSD; the term itself is not, on either side of DENSE_CAP
        shift = InteractionTerm((0, 1), 0.3 * np.eye(4))
        path = _not_psd_chain_file(tmp_path / "phi.txt", length, [shift])
        code = run(["gap", "--length", str(length), "--interaction-file", str(path)])
        assert code == EXIT_CODES["config"]
        assert "not positive semidefinite (term on factors (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--length", "2"],
        ["gap", "--length", "12"],  # dim 4096: the sparse solve
        ["dl-check", "--length", "4"],
        ["certify", "--length", "13", "--k-min", "6", "--k-max", "6", "--s", "1"],
    ],
    ids=["gap-dense", "gap-sparse", "dl-check", "certify"],
)
def test_frustrated_input_exits_config(argv, tmp_path, capsys):
    # diag(1, 0.5) on site 0 plus a singlet bond: every state has energy at
    # least 0.5, so there is no kernel and the lowest level is no gap
    path = tmp_path / "frustrated.txt"
    terms = [InteractionTerm((0,), np.diag([1.0, 0.5])), InteractionTerm((0, 1), singlet_4x4())]
    path.write_text(format_interaction(Interaction(terms, R=1.0, d=2)))
    code = run(argv + ["--interaction-file", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_CODES["config"]
    assert "not frustration-free: empty kernel" in captured.err
    assert "gap" not in captured.out


def test_gap_hands_a_large_kernel_to_the_dense_solve(tmp_path, capsys):
    # one singlet bond on 10 sites: kernel 3 * 2^8, wider than MAX_KERNEL
    path = tmp_path / "phi.txt"
    path.write_text(format_interaction(
        Interaction([InteractionTerm((0, 1), singlet_4x4())], R=1.0, d=2)
    ))
    assert run(["gap", "--length", "10", "--interaction-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kernel dim 768  solver dense" in out
    assert "gap 1" in out


class TestSeedIndependence:
    def _outputs(self, argv, flag, tmp_path):
        out = []
        for seed in ("1", "2"):
            path = tmp_path / f"seed{seed}"
            assert run(argv + ["--seed", seed, flag, str(path)]) == 0
            out.append(path.read_bytes())
        return out

    def test_sparse_gap_csv(self, tmp_path, capsys):
        # dim 2048 takes the sparse path, whose start vectors are fixed
        a, b = self._outputs(
            ["gap", "--model", "heisenberg_fm", "--length", "11"], "--out-csv", tmp_path
        )
        assert a == b

    def test_dl_check_json(self, tmp_path, capsys):
        a, b = self._outputs(
            ["dl-check", "--model", "heisenberg_fm", "--length", "12", "--t", "2",
             "--k-min", "6", "--s", "1"], "--out-json", tmp_path,
        )
        assert a == b

    def test_low_rank_model_reads_the_seed(self, tmp_path, capsys):
        a, b = self._outputs(
            ["gap", "--model", "low_rank", "--rank", "1", "--length", "6"], "--out-csv", tmp_path
        )
        assert a != b


def test_dl_check_leaves_scipy_optimize_unimported():
    import os
    import subprocess
    import sys

    import gapcert

    src = os.path.dirname(os.path.dirname(gapcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from gapcert.cli import main\n"
        "rc = main(['dl-check', '--model', 'commuting_toy', '--length', '10', '--t', '4'])\n"
        "sys.exit(10 + rc if 'scipy.optimize' in sys.modules else rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
