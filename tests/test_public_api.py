import importlib
import pkgutil
import re
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
