"""Command-line interface: gap, dl-check, certify, scaling, coloring, validate.

Exit codes (also shown in --help):
    0  success
    2  usage error (bad flags)
    3  invalid configuration or input file
    4  region too large for the configured caps or for the memory
    5  eigensolver failure
    6  a verification check failed
    7  certification not possible with the given data
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certification, detectability, fileio, models, operators
from ._tensor import FactoredProjectorBlock, matfree_norm
from .errors import (
    AdmissibilityError,
    CertificationError,
    ConfigError,
    DimensionCapError,
    EigensolverError,
    GapcertError,
)
from .interaction import (
    commutation_degree, layer_coloring, phi_bounds, support_overlap_degree, validate
)
from .lattice import chain_graph, check_embedding, grid_graph, make_region, split_pairs
from .operators import hamiltonian, spectral_data

EXIT_CODES = {
    "ok": 0,
    "usage": 2,
    "config": 3,
    "too_large": 4,
    "solver": 5,
    "check_failed": 6,
    "not_certifiable": 7,
}


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if isinstance(x, (int, float)) or x is None else str(x) for x in row) + "\n")


def build_graph(cfg):
    if cfg.graph_file:
        return fileio.load_graph(cfg.graph_file)
    if cfg.grid:
        try:
            dims = [int(x) for x in str(cfg.grid).lower().split("x")]
        except ValueError:
            raise _malformed("grid", cfg.grid, "dims like 4x3") from None
        return grid_graph(*dims)
    if cfg.length:
        return chain_graph(int(cfg.length))
    raise ConfigError("need --length, --grid, or --graph-file")


def build_model(cfg, g):
    name = cfg.model
    if cfg.interaction_file:
        phi, model_name, params = fileio.load_interaction(cfg.interaction_file)
        if phi is not None:
            return phi
        name = model_name
        if "rank" in params:
            cfg.update(rank=int(params["rank"]))
        if "seed" in params:
            cfg.update(seed=int(params["seed"]))
    if name is None:
        raise ConfigError("need --model or --interaction-file")
    if name == "heisenberg_fm":
        return models.heisenberg_fm(g)
    if name == "aklt":
        if g.D != 1:
            raise ConfigError("aklt model is a chain model")
        return models.aklt_chain(len(g))
    if name == "commuting_toy":
        return models.commuting_toy(g)
    if name == "low_rank":
        phi, resamples = models.random_low_rank(g, cfg.rank, cfg.seed)
        print(f"# low_rank: frustration-free after {resamples} resamples")
        return phi
    raise ConfigError(f"unknown model: {name}")


def _load_config(args) -> fileio.RunConfig:
    cfg = fileio.RunConfig()
    cfg.update(schema_version=fileio.CONFIG_SCHEMA_VERSION)
    if getattr(args, "config", None):
        cfg = fileio.load_config(args.config)
        # a key whose flag the subcommand lacks would be accepted and ignored
        unread = sorted(set(cfg.values) - set(vars(args)) - {"schema_version"})
        if unread:
            raise ConfigError(f"config keys not read by {args.command}: {', '.join(unread)}")
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k in fileio.CONFIG_KEYS and v is not None
    }
    cfg.update(**overrides)
    return cfg


def _malformed(key: str, value, expected: str) -> ConfigError:
    flag = "--" + key.replace("_", "-")
    return ConfigError(f"malformed {flag} (config key {key}) value '{value}': expected {expected}")


def _parse_s_rule(rule: str | None, s: int) -> tuple[float, float]:
    """The rule s_k = a * k^b as (a, b): 'const:N' -> (N, 0), 'power:B' ->
    (1, B), and no rule -> (s, 0)."""
    if rule is None:
        return float(s), 0.0
    kind, _, value = rule.partition(":")
    if kind not in ("const", "power"):
        raise ConfigError(f"unknown s rule: {rule}")
    try:
        x = int(value) if kind == "const" else float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise _malformed("s_rule", rule, "const:N or power:B")
    return (float(x), 0.0) if kind == "const" else (1.0, x)


def cmd_gap(args) -> int:
    cfg = _load_config(args)
    g = build_graph(cfg)
    phi = build_model(cfg, g)
    region = make_region(g.ids)
    H = hamiltonian(phi, region, cap=cfg.dim_cap)
    sd = spectral_data(H)
    sd.kernel()  # an empty kernel is not frustration-free: InteractionError
    print(f"region size {len(region)}  hilbert dim {H.dim}")
    print(f"kernel dim {sd.kernel_dim}  solver {sd.solver}")
    print(f"gap {_fmt(sd.gap)}" if sd.gap is not None else "gap undefined (gapless-trivial)")
    if cfg.out_csv:
        write_csv(
            cfg.out_csv,
            ["region_size", "hilbert_dim", "kernel_dim", "gap"],
            [[len(region), H.dim, sd.kernel_dim, sd.gap]],
        )
    return EXIT_CODES["ok"]


def cmd_dl_check(args) -> int:
    cfg = _load_config(args)
    g = build_graph(cfg)
    phi = build_model(cfg, g)
    region = make_region(g.ids)
    t = cfg.t
    checks: list[tuple[str, bool, str]] = []
    payload: dict = {"t": t, "region_size": len(region)}

    decomp = detectability.column_decomposition(phi, g, region, t, alpha=cfg.alpha)
    dl = detectability.dl_operator(decomp)
    payload["columns"] = {str(m): list(r) for m, r in decomp.columns.items()}

    comm = detectability.check_commuting(decomp)
    checks.append(("column-commutation", comm.max_norm <= 1e-12, f"max {comm.max_norm:.3e}"))

    # H is not kept: the matrix-free norms below set the peak memory
    sd = spectral_data(hamiltonian(phi, region, projector_form=True), with_basis=True)
    lam = min(sd.gap, 1.0) if sd.gap is not None else 1.0
    n = len(region)
    P_perp = FactoredProjectorBlock(sd.kernel(), tuple(range(n)), n, phi.d, complement=True)
    dl_norm = matfree_norm(dl)
    checks.append(("dl-norm<=1", dl_norm <= 1.0 + 1e-10, f"{dl_norm:.6f}"))
    dl_perp = detectability.dl_perp_norm(decomp, P_perp)
    payload["dl_perp"] = dl_perp

    T = detectability.layer_product(phi, region)
    # one g for the run, on the projector-form terms that T and DL(t) are built from
    g_comm = (support_overlap_degree if cfg.conservative_g else commutation_degree)(decomp.phi)
    rep = detectability.standard_dl_check(T, P_perp, lam, g_comm)
    flag = " (g=0 -> conservative g=1)" if rep.g_flagged else ""
    if cfg.conservative_g:
        flag += " [support-overlap g]"
    checks.append(
        ("standard-dl", rep.ok, f"{rep.norm_sq:.6f} <= {rep.bound:.6f}{flag}")
    )

    L = T.L
    gamma = lam / (lam + rep.g_used ** 2)
    budget = detectability.printed_degree_budget(t, g.c_gamma, L, phi.R)
    conservative = detectability.conservative_degree_budget(t, g.c_gamma, L, phi.R)
    payload["degree_budget"] = {"printed": budget, "conservative": conservative}
    if budget < 1:
        checks.append(("smuggle", True, "inactive (degree budget < 1)"))
    else:
        fs = [("1", [1.0])]
        if conservative >= 1:
            fs.append(("1-x", [1.0, -1.0]))
            fs.append(
                (f"step(q={conservative})", detectability.ChebyshevStep(conservative, gamma))
            )
        for label, F in fs:
            srep = detectability.smuggle_check(decomp, T, F, g.c_gamma)
            checks.append(
                (f"smuggle[{label}]", srep.residual <= 1e-8, f"residual {srep.residual:.3e}")
            )

    # contraction comparison: the sup-envelope dominates ||DL P_perp||
    tp = math.sqrt(rep.norm_sq)
    eps = tp * tp
    if conservative >= 1:
        step = detectability.ChebyshevStep(conservative, gamma)
        sup_val = detectability.f_sup(step, eps)
        inf_val = detectability.f_star(step, eps)
        payload["pperp"] = {"dl_perp": dl_perp, "sup_envelope": sup_val, "f_star": inf_val}
        checks.append(
            ("pperp-sup-envelope", dl_perp <= sup_val + 1e-9, f"{dl_perp:.6f} <= {sup_val:.6f}")
        )
    bound = None
    try:
        bound = detectability.refined_dl_bound(t, lam, L, rep.g_used, g.c_gamma, phi.R)
        payload["refined_bound"] = bound
        if bound < 1.0:
            checks.append(("refined-dl", dl_perp <= bound + 1e-9, f"{dl_perp:.6f} <= {bound:.6f}"))
        else:
            checks.append(("refined-dl", True, f"vacuous (bound {bound:.3f} >= 1)"))
    except AdmissibilityError as exc:
        checks.append(("refined-dl", True, f"inactive: {exc}"))

    if cfg.k_min is not None:
        # the overlap rows share the region solve and the bound; a split along
        # another axis than --alpha has its own columns and ||DL P_perp||
        by_axis = {decomp.alpha: (decomp, dl_perp)}
        for i, pair in enumerate(split_pairs(region, cfg.k_min, cfg.s, g)):
            if pair.alpha not in by_axis:
                other = detectability.column_decomposition(phi, g, region, t, alpha=pair.alpha)
                by_axis[pair.alpha] = (other, detectability.dl_perp_norm(other, P_perp))
            axis_decomp, axis_dl_perp = by_axis[pair.alpha]
            orep = detectability.overlap_bound_check(axis_decomp, pair, g, sd, axis_dl_perp, bound)
            rhs = f" <= rhs {orep.rhs:.6f}" if orep.rhs is not None else ""
            checks.append((f"overlap[{i}]", orep.ok, f"lhs {orep.lhs:.6f} <= mid {orep.mid:.6f}{rhs}"))
            payload[f"overlap_{i}"] = {
                "lhs": orep.lhs, "mid": orep.mid, "rhs": orep.rhs, "admissible": orep.admissible,
            }

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if cfg.out_json:
        payload["checks"] = [
            {"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks
        ]
        with open(cfg.out_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_CODES["check_failed"] if failed else EXIT_CODES["ok"]


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    g = build_graph(cfg)
    phi = build_model(cfg, g)
    if cfg.k_min is None or cfg.k_max is None or cfg.k_min > cfg.k_max:
        raise ConfigError("empty k range: need --k-min <= --k-max")
    a, b = _parse_s_rule(cfg.s_rule, cfg.s)
    phi_min = phi_bounds(phi)[1]
    rows = []
    entries = []
    measurements = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        # s_k within the admissible window [1, l_k / 8]; a * k^b is +inf where it overflows
        s_k = max(1, math.ceil(min(a * certification.power_or_inf(k, b),
                                   int(certification.side_length(k, g.D) / 8.0))))
        dm = certification.measure_delta_k(
            phi, g, k, s_k, dim_cap=cfg.dim_cap, axis_perms=bool(cfg.axis_perms)
        )
        measurements.append(dm)
        lam = min(dm.gap_min, 1.0)
        entries.append(
            certification.GapEntry(
                k, certification.side_length(k, g.D), lam, s_k,
                min(max(dm.value, 0.0), 1.0),
            )
        )
        print(
            f"k={k}  l_k={certification.side_length(k, g.D):.4f}  s_k={s_k}  "
            f"delta_k={dm.value:.6f}  lambda_k={lam:.6f}  pairs={dm.pairs_tested}"
            + ("" if dm.exhaustive else "  [sampled]")
        )
    seq = certification.GapSequence(entries, D=g.D)
    cert = certification.certify(seq, phi_min, s_rule=(a, b))
    running = phi_min * cert.base_gap
    for e, f, dm in zip(entries, cert.factors, measurements):
        running *= f
        rows.append(
            [e.k, e.l_k, dm.max_region_size, dm.max_hilbert_dim, e.lambda_k, e.delta_k, f, running,
             int(not dm.exhaustive)]
        )
    if cfg.out_csv:
        write_csv(
            cfg.out_csv,
            ["k", "l_k", "region_size", "hilbert_dim", "gap", "delta_k", "factor", "running_lower_bound",
             "sampled"],
            rows,
        )
    certifiable = cert.certifiable and cert.tail_estimate is not None
    print(f"finite product: {_fmt(cert.finite_product)}")
    print(f"tail estimate: {_fmt(cert.tail_estimate) if cert.tail_estimate is not None else 'unavailable'}")
    for note in cert.notes:
        print(f"note: {note}")
    if certifiable:
        print(f"certified lower bound: {_fmt(cert.lower_bound)}")
        return EXIT_CODES["ok"]
    print("not certifiable (no valid infinite-volume tail)")
    return EXIT_CODES["not_certifiable"]


def cmd_scaling(args) -> int:
    cfg = _load_config(args)
    if cfg.interaction_file or cfg.graph_file or cfg.grid or cfg.length:
        raise ConfigError("scaling sweeps built-in chain models over --sizes: --interaction-file, "
                          "--graph-file, --grid and --length are not supported")
    if cfg.sizes is None:
        raise ConfigError("need --sizes (e.g. 4:12 or 4,6,8)")
    try:
        if ":" in str(cfg.sizes):
            lo, hi = str(cfg.sizes).split(":")
            sizes = list(range(int(lo), int(hi) + 1))
        else:
            sizes = [int(x) for x in str(cfg.sizes).split(",")]
    except ValueError:
        raise _malformed("sizes", cfg.sizes, "4:12 or 4,6,8") from None
    cfg.update(model=cfg.model or "heisenberg_fm")
    rows = []
    for n in sizes:
        g = chain_graph(n)
        H = hamiltonian(build_model(cfg, g), make_region(g.ids), cap=cfg.dim_cap)
        sd = spectral_data(H)
        if sd.gap is None:
            raise CertificationError("gapless at finite size")
        rows.append([n, H.dim, sd.gap])
    fit = certification.scaling_fit([r[0] for r in rows], [r[2] for r in rows], cfg.gap_floor)
    for n, dim, gap in rows:
        print(f"n={n}  dim={dim}  gap={_fmt(gap)}")
    print(f"exponent {fit.exponent:.4f}  classification: {fit.classification}")
    if cfg.out_csv:
        write_csv(cfg.out_csv, ["size", "hilbert_dim", "gap"], rows)
    return EXIT_CODES["ok"]


def cmd_coloring(args) -> int:
    cfg = _load_config(args)
    g = build_graph(cfg)
    phi = build_model(cfg, g)
    col = layer_coloring(phi)
    deg = commutation_degree(phi)
    deg_sup = support_overlap_degree(phi)
    print(f"layers L = {col.L} (terms per vertex {col.max_terms_per_vertex}, "
          f"shannon bound {col.shannon_bound})")
    for i, layer in enumerate(col.layers(), start=1):
        print(f"layer {i}: {len(layer)} terms")
    print(f"commutation degree g = {deg} (support-overlap bound {deg_sup})")
    return EXIT_CODES["ok"]


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    g = build_graph(cfg)
    rep = check_embedding(g)
    print(f"embedding: {'ok' if rep.ok else 'violation'}  fitted C = {rep.fitted_c}")
    if not rep.ok:
        print(f"  {rep.message}: pair {rep.violation}")
        return EXIT_CODES["check_failed"]
    if rep.fitted_c is not None and rep.fitted_c > g.c_gamma + 1e-12:
        print(f"  warning: stored c_gamma {g.c_gamma} below fitted {rep.fitted_c}")
    if cfg.model or cfg.interaction_file:
        phi = build_model(cfg, g)
        validate(phi, g)
        phi_max, phi_min = phi_bounds(phi)
        print(f"interaction: {len(phi.terms)} terms valid "
              f"(phi_max {phi_max:.6g}, phi_min {phi_min:.6g}; "
              f"bounds over materialized terms only)")
        region = make_region(g.ids)
        if phi.d ** len(region) <= cfg.dim_cap:
            ff = operators.check_frustration_free(hamiltonian(phi, region))
            print(f"frustration-free on the full region: {ff}")
            if not ff:
                return EXIT_CODES["check_failed"]
    return EXIT_CODES["ok"]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Finite-size spectral gap certification for frustration-free models.",
        epilog="Exit codes: " + ", ".join(f"{v}={k}" for k, v in EXIT_CODES.items()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags beyond the model and geometry ones, each given only to the subcommands that read it
    options = {
        "--dim-cap": {"dest": "dim_cap", "type": int},
        "--out-csv": {"dest": "out_csv"},
        "--out-json": {"dest": "out_json"},
    }

    def common(p, *flags):
        p.add_argument("--config", help="run configuration file (flags override it)")
        p.add_argument("--model", choices=["heisenberg_fm", "aklt", "commuting_toy", "low_rank"])
        p.add_argument("--length", type=int, help="chain length")
        p.add_argument("--grid", help="grid dims, e.g. 4x3")
        p.add_argument("--graph-file", dest="graph_file")
        p.add_argument("--interaction-file", dest="interaction_file")
        p.add_argument("--rank", type=int, help="low_rank model rank")
        p.add_argument("--seed", type=int, help="low_rank model seed")
        for flag in flags:
            p.add_argument(flag, **options[flag])

    p_gap = sub.add_parser("gap", help="kernel dimension and spectral gap of a region")
    common(p_gap, "--dim-cap", "--out-csv")
    p_gap.set_defaults(fn=cmd_gap)

    p_dl = sub.add_parser("dl-check", help="detectability-lemma invariant battery")
    common(p_dl, "--out-json")
    p_dl.add_argument("--t", type=float)
    p_dl.add_argument("--alpha", type=int, help="coarse-graining axis")
    p_dl.add_argument("--k-min", dest="k_min", type=int, help="scale for overlap splits")
    p_dl.add_argument("--s", type=int, help="number of split slabs")
    p_dl.add_argument(
        "--conservative-g", dest="conservative_g", action="store_const", const=1,
        help="bound g by support overlaps instead of measured commutators",
    )
    p_dl.set_defaults(fn=cmd_dl_check)

    p_cert = sub.add_parser("certify", help="divide-and-conquer gap certificate")
    common(p_cert, "--dim-cap", "--out-csv")
    p_cert.add_argument("--k-min", dest="k_min", type=int)
    p_cert.add_argument("--k-max", dest="k_max", type=int)
    p_cert.add_argument("--s", type=int)
    p_cert.add_argument("--s-rule", dest="s_rule", help="const:N or power:B")
    p_cert.add_argument(
        "--axis-perms", dest="axis_perms", action="store_const", const=1,
        help="enumerate axis permutations of the rectangle windows",
    )
    p_cert.set_defaults(fn=cmd_certify)

    p_scale = sub.add_parser("scaling", help="gap versus size exponent fit")
    common(p_scale, "--dim-cap", "--out-csv")
    p_scale.add_argument("--sizes", help="4:12 or 4,6,8")
    p_scale.add_argument("--gap-floor", dest="gap_floor", type=float)
    p_scale.set_defaults(fn=cmd_scaling)

    p_col = sub.add_parser("coloring", help="layer coloring and commutation degree")
    common(p_col)
    p_col.set_defaults(fn=cmd_coloring)

    p_val = sub.add_parser("validate", help="embedding and interaction validation")
    common(p_val, "--dim-cap")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GapcertError) as exc:
        kind = {
            DimensionCapError: "too_large",
            EigensolverError: "solver",
            CertificationError: "not_certifiable",
            AdmissibilityError: "config",
            ConfigError: "config",
        }.get(type(exc))
        if kind is None:
            kind = "config"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[kind]
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: region too large: out of memory{detail}", file=sys.stderr)
        return EXIT_CODES["too_large"]


if __name__ == "__main__":
    sys.exit(main())
