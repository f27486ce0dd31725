import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import targetzone

MODULES = [targetzone] + [
    importlib.import_module(f"targetzone.{info.name}")
    for info in pkgutil.iter_modules(targetzone.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_resolves(module):
    # A stale __all__ entry does not fail at import time; only a star
    # import or an explicit lookup would notice it.
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []


def test_readme_quickstart_runs(capsys):
    # the quickstart names public functions; a removed or renamed one fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quickstart\n+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out.strip()


# the package's public names, by the submodule that defines them
PUBLIC = {
    "errors": ["DomainError", "NumericalError", "ValidationError"],
    "honeymoon": ["ContactReport", "classify_honeymoon"],
    "mc": ["DensityEstimate", "PathEnsemble", "SimConfig", "classify_shape",
           "estimate_density", "exchange_density", "exchange_paths", "simulate"],
    "params": ["ModelParams", "uniform_grid"],
    "spectral": ["FeasibilityReport", "Spectrum", "build_spectrum", "eigen_residual",
                 "ou_asymptotic_spectrum", "regime_scan", "regime_threshold",
                 "relaxation_time", "spread_coefficient"],
    "stationary": ["OUStationary", "StationarySolution", "eval_stationary",
                   "eval_stationary_derivatives", "kummer_1f1", "ou_stationary",
                   "solve_smooth_pasting", "stationary_ode_residual"],
    "transient": ["TransientSolution", "build_transient", "eval_full", "eval_transient",
                  "surface"],
}


def test_cli_import_loads_only_the_analytic_core():
    # a fresh interpreter: this one has already imported every submodule
    src = str(Path(targetzone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, targetzone.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    core = {f"targetzone.{m}" for m in ("params", "spectral", "stationary", "transient")}
    assert core <= loaded
    assert not {"targetzone.mc", "targetzone.honeymoon", "concurrent.futures"} & loaded


def test_public_names_resolve_to_their_submodules():
    assert sorted(targetzone.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"targetzone.{module}")
        for name in names:
            assert getattr(targetzone, name) is getattr(mod, name), name
    assert not hasattr(targetzone, "no_such_name")
    namespace = {}
    exec("from targetzone import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(targetzone.__all__)


@pytest.mark.parametrize("module", targetzone._PUBLIC)
def test_all_lists_exactly_the_public_definitions(module):
    # __all__ is the one declaration of a module's public names: the package
    # resolves its names from it, so nothing public may be left out
    mod = importlib.import_module(f"targetzone.{module}")
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(mod.__all__) == sorted(defined)


def _fresh_submodules(code):
    """The targetzone submodules a fresh interpreter holds after running ``code``."""
    src = str(Path(targetzone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport sys; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return {m.removeprefix("targetzone.") for m in run.stdout.split() if m.startswith("targetzone.")}


def test_a_name_loads_only_the_submodules_it_needs():
    assert _fresh_submodules("from targetzone import ModelParams") == {"errors", "params"}
    assert not {"stationary", "transient", "mc"} & _fresh_submodules(
        "from targetzone import classify_honeymoon")
    assert _fresh_submodules(
        "import targetzone\nassert not hasattr(targetzone, '__wrapped__')") == set()


def test_submodules_are_package_attributes(monkeypatch):
    # a submodule not imported yet is imported on first attribute access
    monkeypatch.delitem(sys.modules, "targetzone.cli")
    monkeypatch.delattr(targetzone, "cli")
    cli = targetzone.cli
    assert cli.__name__ == "targetzone.cli" and sys.modules["targetzone.cli"] is cli
    names = dir(targetzone)
    assert names == sorted(names)
    assert {*targetzone.__all__, *targetzone._SUBMODULES, "__version__"} <= set(names)
