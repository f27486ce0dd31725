"""Run tier-1 against each listed mutant of ``src/`` and report it killed or surviving.

    python tools/mutants.py

Each mutant replaces one exact snippet of one source file.  The checkout
is copied once to a temporary directory; there the unmutated tree runs
first and must pass, then each mutant is applied, tier-1 runs with
``pytest -x`` (acceptance criterion 4, the one expected failure,
deselected), and the file is restored.  One line per mutant: ``killed``
with the first failing test, or ``SURVIVED``.  A mutant whose snippet no
longer occurs exactly once stops the run, so the list cannot go stale
silently.  Exits 1 if any mutant survives.  A survivor needs a test that
fails on it, or a written reason why it is equivalent; no test or bound
is loosened to make a mutant die.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION_4 = "tests/test_acceptance.py::test_criterion_04_relaxation_time_sandwich"

# (name, file under src/targetzone, snippet, replacement)
MUTANTS = (
    ("heun-drift-as-euler", "mc.py",
     "moved = f + 0.5 * (b1 + b2) * dt", "moved = f + b1 * dt"),
    ("heun-second-stage-at-half-step", "mc.py",
     "np.tanh(beta * (f + b1 * dt))", "np.tanh(beta * (f + 0.5 * b1 * dt))"),
    ("noise-scaled-by-1.05", "mc.py",
     "sig_dt = p.sigma * math.sqrt(dt)", "sig_dt = 1.05 * p.sigma * math.sqrt(dt)"),
    ("bernoulli-drift-halved", "mc.py",
     "moved = f + beta * signs * dt", "moved = f + 0.5 * beta * signs * dt"),
    ("bernoulli-sign-biased", "mc.py",
     "gen.random(BLOCK)[: hi - lo] < 0.5", "gen.random(BLOCK)[: hi - lo] < 0.45"),
    ("law-clamp-radius-shrunk", "mc.py",
     "np.clip(pred[idx], -radius, radius)", "np.clip(pred[idx], -0.99 * radius, 0.99 * radius)"),
    ("reflection-folds-once", "mc.py",
     "np.where(m != 2.0 * np.floor(0.5 * m), shift - values, values - shift)",
     "np.where(m == 0.0, values, np.sign(m) * 2.0 * radius - values)"),
    ("mode-tail-bound-1e-9", "mc.py",
     "np.count_nonzero(dropped > 1e-16, axis=1)", "np.count_nonzero(dropped > 1e-9, axis=1)"),
    ("undecided-table-marks-no-cell-exact", "mc.py",
     "table[(table != hi_bin) | (not decides)]", "table[table != hi_bin]"),
    ("bin-rule-off-by-one", "mc.py",
     'np.searchsorted(edges[:-1], x, "right")', 'np.searchsorted(edges[1:], x, "right")'),
    ("bin-rule-last-bin-open", "mc.py",
     "+ (x > edges[-1])", "+ (x >= edges[-1])"),
    ("observed-clip-on-a-given-range", "mc.py",
     "if observed:  # every value lies within the edges", "if True:"),
    ("observed-range-not-clipped", "mc.py",
     "if observed:  # every value lies within the edges", "if False:"),
    ("dirac-like-at-50-percent", "mc.py",
     "if mass[central_5].sum() > 0.60:", "if mass[central_5].sum() > 0.50:"),
    ("density-window-shifted-one-column", "cli.py",
     "j0, j1 = int(window[0] * n), int(window[1] * n) + 1",
     "j0, j1 = int(window[0] * n) + 1, int(window[1] * n) + 2"),
    ("kummer-long-double-resum-off", "specfun.py",
     "if redo.any():", "if False:"),
)


def first_failure(tree: Path) -> str | None:
    """Run tier-1 in ``tree``; the first failing test id, or None when every test passes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", CRITERION_4],
        cwd=tree, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed.group(1) if failed else f"pytest exit code {proc.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        failed = first_failure(tree)
        if failed:
            raise SystemExit(f"the unmutated tree fails {failed}; fix it before judging mutants")
        survivors = 0
        for name, file, old, new in MUTANTS:
            path = tree / "src" / "targetzone" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} does not occur exactly once in {file}")
            path.write_text(text.replace(old, new))
            try:
                failed = first_failure(tree)
            finally:
                path.write_text(text)
            survivors += failed is None
            print(f"{'killed' if failed else 'SURVIVED':8}  {name:36}  {failed or ''}".rstrip(), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
