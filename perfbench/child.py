"""Child process of the benchmark: one transient-sweep pass, or a traced run.

    python3 perfbench/child.py sweep --root R --seed N --out FILE
    python3 perfbench/child.py trace --root R --workload W --seed N --seconds S --out FILE --spans FILE

``sweep`` imports the package, draws the parameter sets and times each
operation.  ``trace`` repeats a workload's operations in-process (the CLI
workloads through ``targetzone.cli.main``), alternating an untraced and a
traced repetition until ``--seconds`` have passed, and reports per-layer
metrics from the traced ones.  Both write one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads as W


def _import_package(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import targetzone
    import targetzone.cli  # noqa: F401  (loads every module the CLI binds)

    if not Path(targetzone.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"targetzone imported from {targetzone.__file__}, not {src}")
    return targetzone


def _sweep_rep(tz, sets, probes: list[float] | None = None):
    """Problems, output digests and op seconds per set; probes the host speed
    after each set when ``probes`` is given."""
    problems, digests, op_s = [], [], []
    for p in sets:
        start = time.perf_counter()
        try:
            out, raised = W.sweep_op(tz, p), None
        except Exception as exc:  # counted as a failed operation, the pass goes on
            out, raised = None, f"raised {exc!r}"
        op_s.append(time.perf_counter() - start)
        if probes is not None:
            probes.append(hostspeed.probe("compute"))
        problems.append([raised] if out is None else W.check_sweep(p, out))
        digests.append(None if out is None else W.sweep_digest(out))
    return problems, digests, op_s


def run_sweep(root: Path, seed: int) -> dict:
    tz = _import_package(root)
    t0 = time.perf_counter()
    sets = W.sweep_params(seed)
    draw_s = time.perf_counter() - t0
    probe_s = [hostspeed.probe("compute")]
    problems, digests, op_s = _sweep_rep(tz, sets, probe_s)
    return {"draw_s": draw_s, "op_s": op_s, "probe_s": probe_s,
            "problems": problems, "digests": digests}


def _cli_rep(tz, ops) -> tuple[list[list[str]], list[bytes | None]]:
    problems, outputs = [], []
    for _, argv, spec in ops:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tz.cli.main(argv)
        except Exception as exc:  # counted as a failed operation, the rep goes on
            problems.append([f"raised {exc!r}"])
            outputs.append(None)
            continue
        if code != 0:
            problems.append([f"exit code {code}"])
            outputs.append(None)
            continue
        data = spec["out"].read_bytes()
        problems.append(W.check_cli_output(spec, data))
        outputs.append(data)
    return problems, outputs


def run_trace(root: Path, workload: str, seed: int, seconds: float, work: Path,
              spans_path: Path) -> dict:
    import tracer as T

    tz = _import_package(root)
    tracer = T.Tracer()
    if workload == "transient_sweep":
        sets = W.sweep_params(seed)
        rep = lambda tag: _sweep_rep(tz, sets)[:2]
    else:
        rep = lambda tag: _cli_rep(tz, W.cli_ops(workload, root, seed, work / tag))

    plain_s, traced_s, per_rep = [], [], []
    attempted = failed = 0
    examples: list[str] = []
    health = None
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        speed = hostspeed.probe("compute")
        t0 = time.perf_counter()
        plain_problems, plain_out = rep("plain")
        plain_s.append(hostspeed.scaled(time.perf_counter() - t0, speed, "compute"))

        tracer.reset()
        tracer.install(tz)
        speed = hostspeed.probe("compute")
        t0 = time.perf_counter()
        try:
            traced_problems, traced_out = rep("traced")
        finally:
            traced_s.append(hostspeed.scaled(time.perf_counter() - t0, speed, "compute"))
            tracer.uninstall()
        per_rep.append(tracer.metrics())
        if health is None:
            c = tracer.collected
            health = W.health(tz, c["spectrum"], c["stationary"], c["transient"])

        for i, plain in enumerate(plain_out):
            differ = plain is not None and plain != traced_out[i]
            for probs in (plain_problems[i], traced_problems[i]):
                attempted += 1
                if probs or differ:
                    failed += 1
                    examples.extend(probs[:1] or ["traced and untraced outputs differ"])

    spans_path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"],
         "spans": tracer.spans}))
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    metrics.update(health)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": examples[:10], "reps": len(traced_s)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("sweep", "trace"))
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    if args.mode == "sweep":
        result = run_sweep(args.root, args.seed)
    else:
        result = run_trace(args.root, args.workload, args.seed, args.seconds,
                           args.out.parent, args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
