"""Packaging metadata and source hygiene: every module and data file pyproject.toml names exists, every test
extra is used, and no private helper of the library goes unused."""

import ast
import importlib.util
import re
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


def test_kernel_source_is_package_data():
    from promptstream import numerics as nm

    data = tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"]["package-data"]["promptstream"]
    assert nm.STRICT_MM_SOURCE.name in data
    assert nm.STRICT_MM_SOURCE.is_file()
    assert nm.STRICT_MM_SOURCE.parent == Path(nm.__file__).parent


def test_names_the_benchmark_wraps_exist():
    """Every public name perfbench/tracing.py wraps exists, so deleting one fails here."""
    from promptstream import numerics as nm
    from promptstream import prompt_codec as pc

    spec = importlib.util.spec_from_file_location("perfbench_tracing", PYPROJECT.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"numerics.{n}" for n in tracing.PRIMITIVES + tracing.COMPOSITES if not hasattr(nm, n)]
    missing += [f"prompt_codec.{n}" for n in tracing.CODEC if not hasattr(pc, n)]
    if "__neg__" not in vars(nm.Tensor):
        missing.append("numerics.Tensor.__neg__")
    assert not missing, f"perfbench/tracing.py wraps {missing}, which do not exist"


def test_every_test_extra_is_imported():
    """Each requirement of the test extra is imported by some file under tests/ or perfbench/."""
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    sources = "\n".join(f.read_text() for d in ("tests", "perfbench") for f in (PYPROJECT.parent / d).rglob("*.py"))
    unused = []
    for req in extra:
        module = re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        if not re.search(rf"^\s*(import|from)\s+{re.escape(module)}\b", sources, re.MULTILINE):
            unused.append(req)
    assert not unused, f"pyproject.toml's test extra names {unused}, which nothing under tests/ or perfbench/ imports"


@pytest.mark.parametrize("module", ["numerics", "prompt_codec"])
def test_every_private_helper_is_used(module):
    """Each module-level private function or class is referenced in its module outside its own definition."""
    tree = ast.parse((PYPROJECT.parent / "src" / "promptstream" / f"{module}.py").read_text())
    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name.startswith("_")]
    assert defs
    unused = []
    for d in defs:
        inside = {id(n) for n in ast.walk(d)}
        if not any(isinstance(n, ast.Name) and n.id == d.name and id(n) not in inside for n in ast.walk(tree)):
            unused.append(d.name)
    assert not unused, f"{module}.py defines {unused}, which nothing else in it uses"


def test_each_op_is_one_block():
    """For each _OPS entry _Op(_fwd_x, _vjp_x) of numerics.py, _vjp_x is the module-level statement right after _fwd_x."""
    tree = ast.parse((PYPROJECT.parent / "src" / "promptstream" / "numerics.py").read_text())
    (ops,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["_OPS"]]
    after = {getattr(a, "name", None): b for a, b in zip(tree.body, tree.body[1:])}
    assert ops.values
    apart = []
    for entry in ops.values:
        fwd, vjp = (arg.id for arg in entry.args)
        if not (isinstance(after.get(fwd), ast.FunctionDef) and after[fwd].name == vjp):
            apart.append(vjp)
    assert not apart, f"numerics.py defines {apart} elsewhere than right after their forwards"
