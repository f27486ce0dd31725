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
    ("stream-key-ignores-block", "mc.py",
     "SeedSequence(entropy=seed, spawn_key=(block,))", "SeedSequence(entropy=seed, spawn_key=(0,))"),
    ("bernoulli-sign-biased", "mc.py",
     "gen.random(BLOCK)[: hi - lo] < 0.5", "gen.random(BLOCK)[: hi - lo] < 0.45"),
    ("bernoulli-under-law-reflects", "mc.py",
     'if config.intervention == "law":', 'if config.intervention == "law" and not bernoulli:'),
    ("law-clamp-radius-shrunk", "mc.py",
     "np.clip(pred, -radius, radius, out=pred)", "np.clip(pred, -0.99 * radius, 0.99 * radius, out=pred)"),
    ("law-counts-upper-overshoots-only", "mc.py",
     "np.count_nonzero(np.abs(pred) > radius)", "np.count_nonzero(pred > radius)"),
    ("reflection-folds-once", "mc.py",
     "np.where(m != 2.0 * np.floor(0.5 * m), shift - values, values - shift)",
     "np.where(m == 0.0, values, np.sign(m) * 2.0 * radius - values)"),
    ("late-column-basis-kept", "mc.py",
     "    transient._slot.clear()\n", ""),
    ("table-used-where-it-cannot-decide", "mc.py",
     "if decides:", "if True:"),
    ("undecided-batch-full-slab", "mc.py",
     "_UNDECIDED_BATCH = 1 << 13", "_UNDECIDED_BATCH = 1 << 15"),
    ("late-columns-from-the-start", "mc.py",
     "for j in reversed(range(first, len(ensemble.times))):", "for j in range(first, len(ensemble.times)):"),
    ("bin-rule-off-by-one", "mc.py",
     'np.searchsorted(edges[:-1], x, "right")', 'np.searchsorted(edges[1:], x, "right")'),
    ("bin-rule-last-bin-open", "mc.py",
     "+ (x > edges[-1])", "+ (x >= edges[-1])"),
    ("observed-clip-on-a-given-range", "mc.py",
     "if observed:  # every value lies within the edges", "if True:"),
    ("observed-range-not-clipped", "mc.py",
     "if observed:  # every value lies within the edges", "if False:"),
    ("density-edges-ignore-value-range", "mc.py",
     "value_range or _extremes([arr])", "_extremes([arr])"),
    ("sim-config-takes-fractional-n-paths", "mc.py",
     '_check_count(self.n_paths, "n_paths", 1)', '_check_count(int(self.n_paths), "n_paths", 1)'),
    ("sim-config-takes-fractional-seed", "mc.py",
     '_check_count(self.seed, "seed", 0)', '_check_count(int(self.seed), "seed", 0)'),
    ("density-takes-fractional-n-bins", "mc.py",
     '_check_count(n_bins, "n_bins", MIN_BINS)', '_check_count(int(n_bins), "n_bins", MIN_BINS)'),
    ("count-takes-a-bool", "params.py",
     "if isinstance(n, bool) or not isinstance(n, (int, np.integer))", "if not isinstance(n, (int, np.integer))"),
    ("grid-takes-fractional-n-points", "params.py",
     '_check_count(n_points, "grid size n_points", 2)', '_check_count(int(n_points), "grid size n_points", 2)'),
    ("dirac-like-at-50-percent", "mc.py",
     "if mass[central_5].sum() > 0.60:", "if mass[central_5].sum() > 0.50:"),
    ("density-window-shifted-one-column", "cli.py",
     "j0, j1 = int(window[0] * n), int(window[1] * n) + 1",
     "j0, j1 = int(window[0] * n) + 1, int(window[1] * n) + 2"),
    ("kummer-long-double-resum-off", "specfun.py",
     "if redo.any():", "if False:"),
    ("ou-spectrum-takes-fractional-K", "spectral.py",
     '_check_count(K, "spectrum size K", 1)\n    _check_ou(',
     '_check_count(int(K), "spectrum size K", 1)\n    _check_ou('),
    ("spectrum-takes-fractional-K", "spectral.py",
     '_check_count(K, "spectrum size K", 1)\n    c = spread_coefficient(params)',
     '_check_count(int(K), "spectrum size K", 1)\n    c = spread_coefficient(params)'),
    ("omega-scale-without-sqrt2", "spectral.py",
     "return params.sigma / (math.sqrt(2.0) * params.f_bar)",
     "return params.sigma / params.f_bar"),
    ("newton-step-taken-outside-bracket", "roots.py",
     "np.where((a < x_new) & (x_new < b), x_new,", "np.where(np.isfinite(x_new), x_new,"),
    ("bracket-side-by-wrong-sign", "roots.py",
     "left = live & ((fa < 0.0) != (fx < 0.0))", "left = live & ((fa < 0.0) == (fx < 0.0))"),
    ("newton-stop-at-1e-6-relative", "roots.py",
     "small = np.abs(dx) <= tol", "small = np.abs(dx) <= np.abs(x) * 1e-6"),
    ("bracket-check-off", "roots.py",
     "if bad.any():", "if False:"),
    ("ou-particular-lambda-mu", "stationary.py",
     "(p.alpha * arr + lam * mu) / (lam + p.alpha)", "lam * mu * arr / (lam + p.alpha)"),
    ("ou-particular-slope-lambda-mu", "stationary.py",
     "rhs = -params.alpha / (lambda_speed + params.alpha)",
     "rhs = -lambda_speed * mu / (lambda_speed + params.alpha)"),
    ("ou-eval-slope-lambda-mu", "stationary.py",
     ", p.alpha / (lam + p.alpha), 0.0)", ", lam * mu / (lam + p.alpha), 0.0)"),
    ("ou-second-derivative-factor-dropped", "stationary.py",
     "k1_zz = (q / 0.5) * ((q + 1.0) / 1.5) * kummer_1f1", "k1_zz = (q / 0.5) * kummer_1f1"),
    ("ou-residual-drift-sign", "stationary.py",
     "drift = -sol.lambda_speed * (arr - sol.mu)", "drift = sol.lambda_speed * (arr - sol.mu)"),
    ("sigma-too-small-check-off", "stationary.py",
     "if not math.isfinite(r):", "if False:"),
    ("ou-spectrum-sigma-check-off", "params.py",
     "if s2 == 0.0 or not math.isfinite", "if not math.isfinite"),
    ("ou-sigma-z-scale-check-off", "params.py",
     " or not math.isfinite(lambda_speed / s2):", ":"),
    ("honeymoon-step-zero", "honeymoon.py",
     "(g(W), math.nan)", "(g(W), 0.0)"),
    ("transient-decay-from-t", "transient.py",
     "np.exp(-rates[:k] * (p.horizon_T - t))", "np.exp(-rates[:k] * t)"),
    ("mode-tail-bound-1e-9", "transient.py",
     "dropped > 1e-15 * amps.sum()", "dropped > 1e-9 * amps.sum()"),
    ("mode-cut-absolute", "transient.py",
     "dropped > 1e-15 * amps.sum()", "dropped > 1e-16"),
    ("row-prefix-one-short", "transient.py",
     "for t, k in zip(times, kept)", "for t, k in zip(times, np.maximum(kept - 1, 0))"),
    ("sine-basis-out-of-place", "transient.py",
     "np.sin(basis, out=basis)", "basis = np.sin(basis)"),
    ("mode-norms-without-sin2u-term", "transient.py",
     "params.f_bar * (1.0 - np.sin(2.0 * us) / (2.0 * us))", "params.f_bar * np.ones_like(us)"),
    ("transient-coeffs-sign-flipped", "transient.py",
     "coeffs = -_sine_moments(sol, us) / norms", "coeffs = _sine_moments(sol, us) / norms"),
    ("transient-cosh-damping-dropped", "transient.py",
     "damp = np.cosh(p.beta * arr)", "damp = np.ones_like(arr)"),
    ("sine-basis-key-without-bytes", "transient.py",
     "key = (width, arr.shape, arr.tobytes())", "key = (width, arr.shape)"),
    ("sine-basis-key-without-width", "transient.py",
     "key = (width, arr.shape, arr.tobytes())", "key = (arr.shape, arr.tobytes())"),
    ("sine-basis-kept-after-a-hit", "transient.py",
     "basis = ts._slot.pop(key, None)", "basis = ts._slot.get(key)"),
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
