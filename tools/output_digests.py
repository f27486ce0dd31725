"""Print a sha256 digest of every CLI output and every transient-sweep result.

    python tools/output_digests.py                     # this checkout
    python tools/output_digests.py --root ../other     # another checkout

Each shipped figure scenario runs ``density`` once per seed in ``SEEDS``
(``default`` is the scenario's own seed, the others go through
``--seed``); every other shipped scenario runs its own subcommand, and
``spectrum_narrow`` also runs ``feasibility`` and ``honeymoon``.  Every
run is made in both ``--format``s.  The benchmark's ``transient_sweep``
operations (``perfbench/workloads.py``: 16 parameter sets per seed in
``SWEEP_SEEDS``) add one ``workloads.sweep_digest`` each.  The output is
one ``name sha256`` line per output file or sweep set, so two checkouts
produce byte-identical outputs exactly when

    diff <(python tools/output_digests.py --root A) \\
         <(python tools/output_digests.py --root B)

is empty.  The package is imported from ``<root>/src`` and run in process
through ``targetzone.cli.main``, one run at a time; the sweep definitions
always come from this checkout's ``perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

# subcommand -> shipped scenarios it runs on (figures excepted: they run density)
COMMANDS = {
    "spectrum": ("spectrum_narrow", "spectrum_wide", "eigenvalue_jump"),
    "stationary": ("fig2_stationary",),
    "transient": ("fig3_transient",),
    "ou": ("ou_stationary",),
    "regime-scan": ("regimeshift_narrow", "regimeshift_wide"),
    "feasibility": ("spectrum_narrow",),
    "honeymoon": ("spectrum_narrow",),
}
FIGURE_PREFIXES = ("fig6", "fig7", "fig8")
FORMATS = ("csv", "json")
SEEDS = ("default", "1", "2", "3")
SWEEP_SEEDS = (1, 2, 3, 7)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def runs(scenarios: Path) -> list[tuple[str, list[str]]]:
    """(output name, CLI argv without --out) for every run, in a fixed order."""
    shipped = sorted(p.stem for p in scenarios.glob("*.json"))
    figures = [s for s in shipped if s.startswith(FIGURE_PREFIXES)]
    covered = set(figures).union(*COMMANDS.values())
    missing = sorted(set(shipped) - covered)
    if missing:
        raise SystemExit(f"no subcommand listed for shipped scenarios {missing}")
    out = []
    for fmt in FORMATS:
        for command, names in COMMANDS.items():
            for name in names:
                argv = [command, "--config", str(scenarios / f"{name}.json"), "--format", fmt]
                out.append((f"{command}:{name}:{fmt}", argv))
        for name in figures:
            for seed in SEEDS:
                argv = ["density", "--config", str(scenarios / f"{name}.json"), "--format", fmt]
                if seed != "default":
                    argv += ["--seed", seed]
                out.append((f"density:{name}:seed={seed}:{fmt}", argv))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(PERFBENCH))
    import targetzone
    import workloads
    from targetzone import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"targetzone was imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out"
        for name, run_argv in runs(src / "targetzone" / "scenarios"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*run_argv, "--out", str(out_path)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            print(name, hashlib.sha256(out_path.read_bytes()).hexdigest(), flush=True)
    for seed in SWEEP_SEEDS:
        for i, p in enumerate(workloads.sweep_params(seed)):
            print(f"sweep:seed={seed}:set{i}", workloads.sweep_digest(workloads.sweep_op(targetzone, p)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
