"""Every public function and class of the library, and every public
method and property of those classes, has a caller in the program: the
package itself, the scripts or the benchmark.

A name counts as called where it appears as a name, an attribute or an
import in the source of src/, scripts/ or bench/; strings, comments and
the tests do not count, so code that only its own tests call fails here.

Importing the package and its command line loads no scipy module: numpy
is the only run-time dependency, and scipy's import graph would triple
the start-up time of every command.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "bench")
MODULES = ("specfun", "numerics", "channel", "eccore", "rateopt", "mcoracle", "sweeps")


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


def _public_members(cls) -> list:
    """Public methods and properties defined on the class itself."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, staticmethod, classmethod)))]


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_have_a_program_caller(module_name):
    module = importlib.import_module(f"irsec.{module_name}")
    public = [name for name in module.__all__
              if inspect.isfunction(getattr(module, name))
              or inspect.isclass(getattr(module, name))]
    public += [f"{name}.{member}" for name in module.__all__
               if inspect.isclass(getattr(module, name))
               for member in _public_members(getattr(module, name))]
    unused = [name for name in public
              if name.rsplit(".", 1)[-1] not in _program_names()]
    assert not unused, f"irsec.{module_name} exports names only tests use: {unused}"


def test_package_and_cli_import_no_scipy():
    probe = ("import irsec, irsec.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         timeout=60)
    assert out.stdout.strip() == "[]", out.stdout
