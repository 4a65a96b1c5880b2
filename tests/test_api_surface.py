"""Every public function and class of the library has a caller in the
program: the package itself, the scripts or the benchmark.

A name counts as called where it appears as a name, an attribute or an
import in the source of src/, scripts/ or bench/; strings, comments and
the tests do not count, so code that only its own tests call fails here.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "bench")
MODULES = ("specfun", "channel", "eccore", "rateopt", "mcoracle", "sweeps")


@functools.lru_cache(maxsize=None)
def _program_names() -> frozenset:
    names = set()
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return frozenset(names)


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_have_a_program_caller(module_name):
    module = importlib.import_module(f"irsec.{module_name}")
    public = [name for name in module.__all__
              if inspect.isfunction(getattr(module, name))
              or inspect.isclass(getattr(module, name))]
    unused = [name for name in public if name not in _program_names()]
    assert not unused, f"irsec.{module_name} exports names only tests use: {unused}"
