"""Packaging metadata: every module pyproject.toml names exists."""

import importlib.util
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def named_modules():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    yield project["name"]
    for target in project.get("scripts", {}).values():
        yield target.partition(":")[0]


@pytest.mark.parametrize("module", list(named_modules()))
def test_named_module_resolves(module):
    assert importlib.util.find_spec(module) is not None, f"pyproject.toml names {module}, which does not exist"
