"""Benchmark of the ``targetzone`` library and CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload, untraced

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy.  Workloads are closed loops
(one client, one operation at a time), defined in ``workloads.py``.

Untraced (``--trace 0``): whole passes of the workload run until
``--seconds`` have passed (at least two).  Every CLI invocation, and every
transient-sweep pass, is a fresh child process; its peak RSS comes from
``os.wait4``.  A set-up probe (a child that imports ``targetzone.cli``
and exits) runs twice before the passes and once after each.  Times
are scaled to a reference host speed (``hostspeed.py``); the raw wall
times are printed too.  End-to-end metrics:

* ``setup_s``: median set-up probe; ``transient_sweep`` adds the median
  time to draw its parameter sets.
* ``wall_s``: median time of one pass.
* ``run_s.p50``: median time of one operation (a CLI invocation or a
  parameter set) over all passes.
* ``peak_rss_mb``: median over passes of the largest peak RSS of any child
  in the pass.

Traced (``--trace 1``): a child repeats the operations in-process with
span wrappers (``tracer.py``) and reports the per-layer metrics.

Every output is checked; a failed check counts the operation as failed
and the run goes on.  Within a run all passes use the same seed, so their
outputs must be byte-identical.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread for this process's probe and for every child.  numpy's
# huge-page advice is off so that peak RSS does not depend on how the host
# backs large arrays: at one seed and identical arguments, fig8 peaked at
# 242 MB with the advice and at 220 MB without.
BENCH_ENV = dict.fromkeys(THREAD_ENV, "1") | {"NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(BENCH_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 2  # before the passes; one more follows each pass
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0

# the host-speed probe that matches each workload's operations
PROBE_KIND = {"figures_density": "compute", "transient_sweep": "compute", "scenario_cli": "spawn"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "run_s.p50": "s", "peak_rss_mb": "MB"}


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return wall, code, usage.ru_maxrss / 1024.0


def child_failed(what: str, log: Path) -> SystemExit:
    return SystemExit(f"{what} failed:\n{log.read_text()}")


class Run:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {problems[0]}")


def setup_probe(work: Path) -> tuple[float, float]:
    """(scaled, raw) wall time of a child that imports ``targetzone.cli``."""
    before = hostspeed.probe("spawn")
    wall, code, _ = spawn([sys.executable, "-c", "import targetzone.cli"], work / "setup.log")
    if code != 0:
        raise child_failed("set-up probe", work / "setup.log")
    return hostspeed.scale_all([wall], [before, hostspeed.probe("spawn")], "spawn")[0]


def cli_pass(workload: str, seed: int, work: Path, run: Run, first: dict):
    """One pass of a CLI workload: ([(scaled, raw) seconds per op], largest peak RSS)."""
    ops = W.cli_ops(workload, ROOT, seed, work)
    kind = PROBE_KIND[workload]
    walls, rss, codes = [], [], []
    probes = [hostspeed.probe(kind)]
    for name, argv, _ in ops:
        wall, code, peak = spawn([sys.executable, "-m", "targetzone.cli", *argv],
                                 work / f"{name.replace(':', '-')}.log")
        probes.append(hostspeed.probe(kind))
        walls.append(wall)
        rss.append(peak)
        codes.append(code)
    for (name, _, spec), code in zip(ops, codes):
        if code != 0:
            run.record(name, [f"exit code {code}"])
            continue
        data = spec["out"].read_bytes()
        spec["out"].unlink()
        problems = W.check_cli_output(spec, data)
        if first.setdefault(name, data) != data:
            problems.append("output differs from the first pass")
        run.record(name, problems)
    return hostspeed.scale_all(walls, probes, kind), max(rss)


def sweep_pass(seed: int, work: Path, run: Run, first: dict):
    """One transient-sweep pass in a fresh child: (timed ops, peak RSS, draw seconds)."""
    out = work / "sweep.json"
    _, code, peak = spawn([sys.executable, str(HERE / "child.py"), "sweep", "--root", str(ROOT),
                           "--seed", str(seed), "--out", str(out)], work / "sweep.log")
    if code != 0:
        raise child_failed("sweep child", work / "sweep.log")
    res = json.loads(out.read_text())
    for i, (problems, digest) in enumerate(zip(res["problems"], res["digests"])):
        if first.setdefault(i, digest) != digest:
            problems.append("output differs from the first pass")
        run.record(f"set{i}", problems)
    timed = hostspeed.scale_all(res["op_s"], res["probe_s"], "compute")
    return timed, peak, hostspeed.scaled(res["draw_s"], res["probe_s"][0], "compute")


def run_untraced(workload: str, seed: int, seconds: float, work: Path, run: Run) -> dict:
    setup_probe(work)  # warm-up: writes the bytecode cache
    setup = [setup_probe(work) for _ in range(SETUP_PROBES)]
    ops, walls, rss, draws = [], [], [], []
    first: dict = {}
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        if workload == "transient_sweep":
            timed, peak, draw = sweep_pass(seed, work, run, first)
            draws.append(draw)
        else:
            timed, peak = cli_pass(workload, seed, work, run, first)
        ops += timed
        walls.append((sum(s for s, _ in timed), sum(r for _, r in timed)))
        rss.append(peak)
        setup.append(setup_probe(work))
    med = lambda pairs, i: statistics.median(p[i] for p in pairs)  # noqa: E731
    metrics = {
        "setup_s": med(setup, 0) + (statistics.median(draws) if draws else 0.0),
        "wall_s": med(walls, 0),
        "run_s.p50": med(ops, 0),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"passes {len(walls)}, operations {len(ops)}, set-up probes {len(setup)}")
    print(f"raw (unscaled) medians: setup_s {med(setup, 1):.6g} s, wall_s {med(walls, 1):.6g} s, "
          f"run_s.p50 {med(ops, 1):.6g} s; largest peak RSS {max(rss):.6g} MB")
    if workload == "figures_density":
        steps = 0
        for scenario, _ in W.FIGURES:
            scn = json.loads((ROOT / W.SCENARIOS / f"{scenario}.json").read_text())
            steps += scn["sim"]["n_paths"] * round(scn["model"]["horizon_T"] * scn["model"]["alpha"])
        print(f"metric path_steps_per_s = {steps / metrics['wall_s']:.6g} 1/s")
    elif workload == "transient_sweep":
        print(f"metric transients_per_s = {W.SWEEP_SETS / metrics['wall_s']:.6g} 1/s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("ratio"):
        return "ratio"
    if name.startswith("health."):
        return "1"
    if name.endswith("_s") or name == "quadrature.s":
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def run_traced(workload: str, seed: int, seconds: float, work: Path, run: Run) -> dict:
    out = work / "trace.json"
    spans = WORK / f"spans-{workload}.json"
    _, code, _ = spawn([sys.executable, str(HERE / "child.py"), "trace", "--root", str(ROOT),
                        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--out", str(out), "--spans", str(spans)], work / "trace.log")
    if code != 0:
        raise child_failed("trace child", work / "trace.log")
    res = json.loads(out.read_text())
    run.attempted += res["attempted"]
    run.failed += res["failed"]
    run.problems += res["problems"]
    print(f"traced repetitions {res['reps']}, spans written to {spans.relative_to(ROOT)}")
    metrics = dict(res["metrics"], **{"src.lines": float(src_lines())})
    top = max((k for k in metrics if k.endswith(".self_s")), key=metrics.get)
    print(f"largest layer self time: {top.split('.')[0]} ({metrics[top]:.6g} s)")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "targetzone").glob("*.py"))


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "env": BENCH_ENV,
        "commit": git_commit(),
        "seed": seed,
        "src.lines": src_lines(),
        "host_probe_reference_s": hostspeed.REFERENCE_S,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"run-{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        if trace:
            metrics = run_traced(workload, seed, seconds, work, run)
        else:
            metrics = run_untraced(workload, seed, seconds, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"metric failed_ratio = {run.failed / run.attempted:.6g} "
          f"(failed {run.failed} of {run.attempted} attempted)")
    for problem in run.problems[:10]:
        print(f"problem {problem}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the targetzone library and CLI.")
    ap.add_argument("--workload", choices=W.WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "targetzone" / "__init__.py").is_file():
        print(f"no targetzone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    results = {}
    for name in [args.workload] if args.workload else W.WORKLOADS:
        print(f"workload {name}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
