"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the gapcert source directory, the argv of every op and whether
to trace.  The worker times the import of ``gapcert.cli`` (numpy and scipy
included), runs the ops back to back with ``gapcert.cli.main`` and writes
their exit codes, output, wall times and the process's peak RSS to RESULT.
With no ops it only measures the import.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from gapcert import cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    start = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        if tracer:
            tracer.begin_op(i)
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except (Exception, SystemExit) as exc:  # an op that raises counts as failed
            error = repr(exc)
        ops.append({"rc": rc, "error": error, "wall_s": time.perf_counter() - t,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
    pass_wall = time.perf_counter() - start
    for op, res in zip(spec["ops"], ops):
        for kind in ("csv", "json"):
            path = op.get(f"out_{kind}")
            res[kind] = Path(path).read_text() if path and Path(path).exists() else None
    result = {
        "setup_s": setup_s,
        "wall_s": pass_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, [o["wall_s"] for o in ops])
        Path(result_path).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
