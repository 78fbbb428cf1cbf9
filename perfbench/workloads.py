"""Benchmark workloads: the ops each one runs and the references they are checked against.

An op is one in-process ``gapcert.cli.main(argv)`` call.  Every reference is
computed here without gapcert: closed forms for the ferromagnetic (FM) chain
and the commuting toy, and dense numpy diagonalisation of operators built
with ``np.kron`` for AKLT and the random instances.  References are computed
once per run, outside the timed passes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

GAP_TOL = 1e-8  # absolute tolerance on gaps, overlap norms and delta_k
KERNEL_REL = 1e-9  # kernel cut, relative to max(1, ||H||), as in gapcert's README

# Two workloads: the gap solves alone (the operators layer), and the
# certification and detectability chains on top of them.  A run must last
# about a minute to be steady on a shared host, and the time all runs may
# take allows that for two workloads.
WORKLOADS = ("spectrum", "certify-detect")
RANDOM_INSTANCES = 3
RANDOM_LENGTH = 10


@dataclass
class Op:
    """One CLI call plus what its output must show."""

    argv: list[str]
    exit_code: int
    csv_refs: dict = field(default_factory=dict)  # column -> (reference, tolerance)
    json_refs: dict = field(default_factory=dict)  # dotted key -> (reference, tolerance)
    stdout_refs: dict = field(default_factory=dict)  # line prefix -> (reference, rel. tolerance)
    all_checks_pass: bool = False
    out_csv: str | None = None
    out_json: str | None = None


def fm_chain_gap(n: int) -> float:
    """Spin-1/2 FM chain with singlet-projector terms: gap 1 - cos(pi/n)."""
    return 1.0 - math.cos(math.pi / n)


def fm_overlap_norm(a: int, b: int, c: int) -> float:
    """||P_A P_B - P_AB|| for FM chain segments A, B of a and b sites sharing c.

    The largest principal-angle cosine lives in the one-magnon sector:
    sqrt((a - c)(b - c) / (a b)).
    """
    return math.sqrt((a - c) * (b - c) / (a * b))


def kron_chain_hamiltonian(terms, n: int, d: int) -> np.ndarray:
    """Dense open-chain Hamiltonian, sum_i 1 (x) term_i (x) 1, by plain np.kron."""
    dim = d ** n
    dtype = complex if any(np.iscomplexobj(t) for t in terms) else float
    H = np.zeros((dim, dim), dtype=dtype)
    for i, term in enumerate(terms):
        H += np.kron(np.kron(np.eye(d ** i), term), np.eye(d ** (n - i - 2)))
    return H


def kernel_and_gap(w: np.ndarray) -> tuple[int, float]:
    tol = KERNEL_REL * max(1.0, float(np.abs(w).max()))
    return int((w <= tol).sum()), float(np.min(w[w > tol]))


def aklt_reference(n: int) -> tuple[int, float]:
    """Kernel dimension and gap of the open AKLT chain, block by block in S^z.

    The two-site term is P_2 = 1/3 + (S.S)/2 + (S.S)^2/6 for spin 1.  The
    3^n-dimensional matrix is never diagonalised whole: every S^z sector is
    diagonalised densely, which keeps the reference cheap at n = 8.
    """
    sz = np.diag([1.0, 0.0, -1.0])
    splus = np.diag([math.sqrt(2.0)] * 2, 1)
    ss = np.kron(sz, sz) + 0.5 * (np.kron(splus, splus.T) + np.kron(splus.T, splus))
    p2 = np.eye(9) / 3.0 + ss / 2.0 + ss @ ss / 6.0
    # site i has digit i in base 3 (most significant first), digit 0 <-> m = +1
    digits = np.indices((3,) * n).reshape(n, -1)
    mtot = (1 - digits).sum(axis=0)
    H = sp.csr_matrix((3 ** n, 3 ** n))
    for i in range(n - 1):
        H = H + sp.kron(sp.kron(sp.identity(3 ** i), sp.csr_matrix(p2)), sp.identity(3 ** (n - i - 2)))
    H = H.tocsr()
    w = [np.linalg.eigvalsh(H[idx][:, idx].toarray())
         for idx in (np.flatnonzero(mtot == m) for m in np.unique(mtot))]
    return kernel_and_gap(np.concatenate(w))


def random_chain(n: int, seed: int, index: int) -> list[np.ndarray]:
    """Haar-random rank-1 projectors |z><z| on every bond of an n-site qubit chain."""
    rng = np.random.default_rng([seed, index])
    terms = []
    for _ in range(n - 1):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z /= np.linalg.norm(z)
        terms.append(np.outer(z, z.conj()))
    return terms


def format_chain_terms(terms) -> str:
    """Explicit-term interaction file, every entry with 17 significant digits."""
    lines = ["d 2", "range 1"]
    for i, term in enumerate(terms):
        lines.append(f"term {i} {i + 1}")
        for row in term:
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def _gap_op(args: list[str], kernel_dim: int, gap: float) -> Op:
    return Op(["gap", *args], 0, csv_refs={"kernel_dim": (kernel_dim, 0), "gap": (gap, GAP_TOL)})


def _spectrum() -> list[Op]:
    # n <= 12 take the dense path (dim <= DENSE_CAP = 4096); n = 13 and
    # AKLT (3^8 = 6561) take the sparse one.
    ops = [
        _gap_op(["--model", "heisenberg_fm", "--length", str(n)], n + 1, fm_chain_gap(n))
        for n in (10, 11, 12, 13)
    ]
    kernel, gap = aklt_reference(8)
    ops.append(_gap_op(["--model", "aklt", "--length", "8"], kernel, gap))
    return ops


def _certify() -> list[Op]:
    k6 = ["--k-min", "6", "--k-max", "6"]
    # n = 13: one window, the whole chain (l_6 = 11.39).  Its single slab
    # split with s = 1 has A = sites 0..6 and B = sites 6..12.
    fm = Op(
        ["certify", "--model", "heisenberg_fm", "--length", "13", *k6, "--s", "1"], 7,
        csv_refs={"delta_k": (fm_overlap_norm(7, 7, 1), GAP_TOL), "gap": (fm_chain_gap(13), GAP_TOL)},
    )
    # commuting diagonal projectors: P_A P_B = P_AB and integer spectrum
    toy = Op(
        ["certify", "--model", "commuting_toy", "--length", "14", *k6, "--s", "1"], 7,
        csv_refs={"delta_k": (0.0, GAP_TOL), "gap": (1.0, GAP_TOL)},
    )
    # certified bound as printed by gapcert 0.1.0 for these inputs
    toy_power = Op(
        ["certify", "--model", "commuting_toy", "--length", "13", *k6, "--s-rule", "power:1.25"], 0,
        csv_refs={"delta_k": (0.0, GAP_TOL), "gap": (1.0, GAP_TOL)},
        stdout_refs={"certified lower bound:": (0.01653122694460174, 1e-9)},
    )
    return [fm, toy, toy_power]


def _detect() -> list[Op]:
    # 2^19-dimensional matrix-free DL chain; for commuting projectors
    # DL(t) is the joint ground projector, so ||DL P_perp|| = 0
    toy = Op(
        ["dl-check", "--model", "commuting_toy", "--length", "19", "--t", "4"], 0,
        json_refs={"dl_perp": (0.0, GAP_TOL)}, all_checks_pass=True,
    )
    fm = Op(
        ["dl-check", "--model", "heisenberg_fm", "--length", "13", "--t", "2", "--k-min", "6", "--s", "1"], 0,
        json_refs={"overlap_0.lhs": (fm_overlap_norm(7, 7, 1), GAP_TOL)}, all_checks_pass=True,
    )
    return [toy, fm]


def _random(seed: int, work: Path) -> list[Op]:
    ops = []
    for index in range(RANDOM_INSTANCES):
        terms = random_chain(RANDOM_LENGTH, seed, index)
        path = work / f"random-{index}.txt"
        path.write_text(format_chain_terms(terms))
        w = np.linalg.eigvalsh(kron_chain_hamiltonian(terms, RANDOM_LENGTH, 2))
        kernel, gap = kernel_and_gap(w)
        ops.append(_gap_op(["--length", str(RANDOM_LENGTH), "--interaction-file", str(path)], kernel, gap))
    return ops


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Ops of one pass, with their references; writes generated inputs into work."""
    ops = _spectrum() + _random(seed, work) if workload == "spectrum" else _certify() + _detect()
    for i, op in enumerate(ops):
        op.argv += ["--seed", str(seed)]
        if op.csv_refs:
            op.out_csv = str(work / f"op{i}.csv")
            op.argv += ["--out-csv", op.out_csv]
        if op.json_refs or op.all_checks_pass:
            op.out_json = str(work / f"op{i}.json")
            op.argv += ["--out-json", op.out_json]
    return ops


def _lookup(payload: dict, dotted: str):
    for key in dotted.split("."):
        payload = payload[key]
    return payload


def _close(value, ref, tol) -> bool:
    return abs(float(value) - ref) <= tol


def check(op: Op, result: dict) -> list[str]:
    """Reasons the op failed, empty when it passed.  result holds rc, error, stdout, csv, json."""
    if result["error"]:
        return [f"raised {result['error']}"]
    problems = []
    if result["rc"] != op.exit_code:
        problems.append(f"exit {result['rc']}, expected {op.exit_code}")
    try:
        if op.out_csv:
            row = list(csv.DictReader(result["csv"].splitlines()))[-1]
            problems += [
                f"{col} = {row[col]}, expected {ref!r}"
                for col, (ref, tol) in op.csv_refs.items() if not _close(row[col], ref, tol)
            ]
        if op.out_json:
            payload = json.loads(result["json"])
            problems += [
                f"{key} = {_lookup(payload, key)}, expected {ref!r}"
                for key, (ref, tol) in op.json_refs.items() if not _close(_lookup(payload, key), ref, tol)
            ]
            if op.all_checks_pass:
                problems += [f"check {c['name']} failed" for c in payload["checks"] if not c["ok"]]
        for prefix, (ref, rel) in op.stdout_refs.items():
            lines = [ln for ln in result["stdout"].splitlines() if ln.startswith(prefix)]
            if not lines or not _close(lines[-1][len(prefix):], ref, rel * abs(ref)):
                problems.append(f"'{prefix}' line {lines[-1:]}, expected {ref!r}")
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        # a missing output file reads as None
        problems.append(f"unreadable output: {exc!r}")
    return problems
