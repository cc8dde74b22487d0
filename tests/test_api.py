"""The public surface: every exported name exists."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import cogaccess

MODULES = sorted(m.name for m in pkgutil.iter_modules(cogaccess.__path__))


def test_every_module_is_listed():
    assert {"cli", "errors", "estimator", "mathcore", "optimizer", "phy", "schemes", "sim"} <= set(MODULES)


@pytest.mark.parametrize("name", ["cogaccess"] + [f"cogaccess.{m}" for m in MODULES])
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_no_source_line_is_over_120_characters():
    package = Path(cogaccess.__file__).parent
    long_lines = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
                  for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert long_lines == []
