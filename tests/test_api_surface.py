"""Every public name of the library (each function, class, constant and
alias in a module's __all__, and every public method and property of
those classes) has a user in the program: the package itself, the
scripts or the benchmark.

A name counts as used where it is read as a name or an attribute, or
imported, in the source of src/, scripts/ or bench/. An assignment does
not count, nor do strings, comments and the tests, so a name that only
its own definition and the tests mention fails here.

Importing the package and its command line loads no scipy module, and
scipy's import graph would triple the start-up time of every command.
Only irsec.mcoracle imports numpy, so the closed forms, `irsec ec` and
`irsec optimize-rate` load no numpy module either.

The paper's approximations (irsec.paper) are reported beside the
library's answers, never used to compute them: only the command line
imports that module.
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
MODULES = ("specfun", "numerics", "channel", "eccore", "rateopt", "paper", "mcoracle",
           "sweeps")


@functools.lru_cache(maxsize=None)
def _program_names() -> frozenset:
    names = set()
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                # a constant's own assignment is an ast.Name too, in Store context
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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
    public = list(module.__all__)
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


@pytest.mark.parametrize("argv", [
    None,
    ["ec", "--scenario", "siso_nocsi", "--alpha", "0.1"],
    ["optimize-rate", "--scenario", "miso_nocsi", "--alpha", "1"],
], ids=["import", "ec", "optimize-rate"])
def test_analytic_path_loads_no_numpy(argv):
    probe = "import sys, irsec, irsec.cli, irsec.eccore, irsec.rateopt, irsec.paper, irsec.sweeps\n"
    if argv is not None:
        probe += ("import contextlib, io\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    assert irsec.cli.main({argv!r}) == 0\n")
    probe += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         timeout=60)
    assert out.stdout.strip() == "[]", out.stdout


def _imported_modules(tree: ast.Module):
    """Every module the tree's import statements name, a relative one
    read inside the irsec package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "irsec" + ("." + base if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _importers(module: str) -> list:
    """The package's files that import module or one of its submodules."""
    return sorted(path.name for path in (ROOT / "src" / "irsec").rglob("*.py")
                  if any(name == module or name.startswith(module + ".")
                         for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))))


def test_only_the_oracle_imports_numpy():
    assert _importers("numpy") == ["mcoracle.py"]


def test_only_the_cli_imports_the_paper_module():
    assert _importers("irsec.paper") == ["cli.py"]
