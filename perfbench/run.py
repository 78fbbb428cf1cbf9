"""gapcert benchmark: end-to-end and per-layer metrics on two workloads.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 60 --trace 0

Run from the root of a gapcert checkout.  Each workload is a fixed list of
in-process ``gapcert.cli.main(argv)`` calls (ops) run back to back by one
client: a closed loop.  A pass runs every op once in a fresh interpreter;
passes repeat while the next one is expected to end within --seconds (at
least three), and every op of every pass is checked against a reference
computed without gapcert.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
passes), --trace 1 the per-layer metrics from spans around each layer's
functions.  ``--workload all`` runs both workloads in turn.  The last
line of output is one JSON object; a record with the environment and every
pass is written to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
MIN_PASSES = 3  # a median of at least three passes per run
MIN_TRACED = 2  # two traced passes for the repeat-count self-test
IMPORT_SAMPLES = 3
HARD_STOP_S = 150.0  # start no pass after this; a run must end within 180 s
PASS_TIMEOUT_S = 170.0
# counts that two traced passes of the same code must reproduce exactly
REPEATABLE = (
    "lattice.windows", "lattice.pairs", "operators.spectral_data.dense",
    "operators.spectral_data.sparse", "operators.spectral_data.diagonal", "tensor.chain_applies",
)
THREADS = min(2, len(os.sched_getaffinity(0)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(THREADS)  # before numpy loads, for the references too

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports numpy)


def child_env() -> dict:
    """Hermetic environment: no kernel cache, no foreign gapcert, fixed BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k not in ("GAPCERT_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": openblas, "nproc": len(os.sched_getaffinity(0)), "threads": THREADS, "seed": seed,
    }


class Runner:
    def __init__(self, work: Path, ops: list, deadline: float):
        self.work = work
        self.ops = ops
        self.deadline = deadline
        self.count = 0

    def run(self, with_ops: bool, trace: bool = False) -> dict:
        """One fresh-interpreter pass (or only the import, without ops)."""
        self.count += 1
        spec = self.work / f"pass{self.count}.spec.json"
        result = self.work / f"pass{self.count}.json"
        for op in self.ops:
            for path in (op.out_csv, op.out_json):
                if path:
                    Path(path).unlink(missing_ok=True)
        ops = [{"argv": o.argv, "out_csv": o.out_csv, "out_json": o.out_json} for o in self.ops]
        spec.write_text(json.dumps({"src": str(SRC), "trace": trace, "ops": ops if with_ops else []}))
        timeout = max(1.0, min(PASS_TIMEOUT_S, self.deadline - time.perf_counter()))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec), str(result)],
                env=child_env(), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"crash": f"pass timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not result.exists():
            return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(result.read_text())


def op_problems(ops, res: dict) -> list[list[str]]:
    """Per op of one pass, the reasons it failed (empty when it passed)."""
    if "crash" in res:
        return [[res["crash"]]] * len(ops)
    return [workloads.check(op, out) for op, out in zip(ops, res["ops"])]


def self_test(traced: list[dict]) -> list[str]:
    """Traced passes must repeat their counts and account for their wall time."""
    problems = []
    first = traced[0]["layers"]
    names = [n for n in first if n.endswith(".calls")] + list(REPEATABLE)
    for res in traced[1:]:
        problems += [f"count {n} differs: {first[n]} vs {res['layers'][n]}"
                     for n in names if res["layers"][n] != first[n]]
    for res in traced:
        layers = res["layers"]
        covered = sum(v for n, v in layers.items() if n.endswith(".s"))
        if abs(covered - res["wall_s"]) > 0.01 * res["wall_s"] + 0.01:
            problems.append(f"self times + cli.other.s = {covered:.4f} s, traced wall {res['wall_s']:.4f} s")
        if layers["min_self_s"] < -1e-6:
            problems.append(f"spans overlap: self time {layers['min_self_s']:.3g} s")
    return problems


def pass_wall(passes: list[dict]) -> float:
    """Median wall time of one pass, taken op by op: the sum of each op's median.

    Load from other tenants of the host comes in bursts of a few seconds that
    slow whichever op they hit.  A median per op discards a burst in one op of
    one pass, where a median of pass totals keeps every pass a burst touched.
    """
    per_op = zip(*([op["wall_s"] for op in res["ops"]] for res in passes))
    return sum(statistics.median(times) for times in per_op)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.4f}  q3 {q3:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    t_start = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.build(name, seed, work)
    runner = Runner(work, ops, t_start + HARD_STOP_S + 25.0)
    runner.run(with_ops=False)  # warm-up: byte-compiles gapcert, fills the page cache
    setup = [] if trace else [runner.run(with_ops=False) for _ in range(IMPORT_SAMPLES)]
    # a traced run interleaves one untraced pass before every two traced ones
    untraced, passes = [], []
    min_passes = MIN_TRACED if trace else MIN_PASSES
    # start a pass only if it is expected to end within --seconds
    t_measure, durations = time.perf_counter(), []
    while len(passes) < min_passes or (
        time.perf_counter() - t_measure + statistics.median(durations) <= seconds
        and time.perf_counter() - t_start < HARD_STOP_S
    ):
        t_pass = time.perf_counter()
        if trace and len(untraced) * 2 <= len(passes):
            untraced.append(runner.run(with_ops=True))
        else:
            passes.append(runner.run(with_ops=True, trace=trace))
        durations.append(time.perf_counter() - t_pass)
        if "crash" in (untraced + passes)[-1] and len(passes) >= min_passes:
            break
    per_op = [p for res in untraced + passes for p in op_problems(ops, res)]
    attempted = len(per_op)
    failed = sum(bool(p) for p in per_op)
    problems = [f"op {i % len(ops)} ({' '.join(ops[i % len(ops)].argv[:3])}): {msg}"
                for i, p in enumerate(per_op) for msg in p]
    ok = [r for r in passes if "crash" not in r]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace and ok:
        setup_samples = [r["setup_s"] for r in setup + ok if "crash" not in r]
        rss = [r["peak_rss_mb"] for r in ok]
        metrics["wall_s"] = (pass_wall(ok), f"sum of per-op medians over {len(ok)} passes")
        for metric, values, what in (("setup_s", setup_samples, "imports"), ("peak_rss_mb", rss, "passes")):
            metrics[metric] = (statistics.median(values), f"median of {len(values)} {what}{quartiles(values)}")
    elif trace and ok and all("crash" not in r for r in untraced):
        problems += self_test(ok)
        layers = tracing.median_metrics([r["layers"] for r in ok])
        layers["trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in ok) / statistics.median(r["wall_s"] for r in untraced) - 1.0
        )
        metrics = {m["name"]: (layers[m["name"]], f"median of {len(ok)} traced passes")
                   for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    correct = not problems and all(n in metrics for n in wanted)
    record = {"workload": name, "env": environment(seed), "correct": correct, "problems": problems,
              "metrics": {n: v[0] for n, v in metrics.items()}, "passes": untraced + passes,
              "setup_samples": [r.get("setup_s") for r in setup]}
    (work / "result.json").write_text(json.dumps(record))

    print(f"== {name}  seed {seed}  trace {int(trace)}: {len(untraced + passes)} passes, "
          f"{attempted} ops attempted, {failed} failed, fail_frac {failed / attempted:.4g} "
          f"({time.perf_counter() - t_start:.1f} s)")
    for metric, (value, note) in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {units[metric]:14s} {note}")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    env = record["env"]
    print("  env: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": as_number(v[0], units[n]), "unit": units[n]}
                        for n, v in metrics.items() if n in wanted}}


def as_number(value: float, unit: str):
    return int(value) if unit == "count" and float(value).is_integer() else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gapcert" / "cli.py").is_file():
        print(f"error: no gapcert sources at {SRC}; run from a gapcert checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
