"""Static checks on the package source: every module reads what it imports,
only the model builds progress ids, one function opens every tape, no
module zeroes gradients, only the worker module touches processes and shared
memory, and the CLI derives no per-row sampler seed.

The package re-exports its public names from __init__.py, which therefore
imports names it never reads and is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pmrope"


def unused_imports(source: str) -> list:
    """Names a module binds by import and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.zeros(1) * pi\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def calls_of(source: str, name: str, keyword: str | None = None) -> int:
    """How many calls a module makes to name, bare or as an attribute; with
    keyword, only the calls that pass that keyword argument."""
    return sum(isinstance(node, ast.Call) and
               (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
               and (keyword is None or any(k.arg == keyword for k in node.keywords))
               for node in ast.walk(ast.parse(source)))


def test_the_check_counts_bare_and_attribute_calls():
    source = "f(1)\npositional.f(2)\ng = f\nh(f)\nf(x, seed=1)\n"
    assert calls_of(source, "f") == 3
    assert calls_of(source, "f", keyword="seed") == 1


def test_only_the_model_builds_progress_ids():
    # the decoder builds its progress from per-row lengths; its callers pass lengths
    callers = sorted(p.name for p in PACKAGE.glob("*.py")
                     if calls_of(p.read_text(encoding="utf-8"), "progress_ids"))
    assert callers == ["model.py"]


def test_one_function_opens_every_tape():
    # _share_gradients runs every training step's tapes, in both processes
    callers = {p.name: calls_of(p.read_text(encoding="utf-8"), "Tape")
               for p in PACKAGE.glob("*.py")}
    assert {name: n for name, n in callers.items() if n} == {"training.py": 1}


def test_no_module_zeroes_gradients():
    # each share starts its parameters' gradients at None instead
    callers = sorted(p.name for p in PACKAGE.glob("*.py")
                     if calls_of(p.read_text(encoding="utf-8"), "zero_grad"))
    assert callers == []


def imported_modules(source: str) -> set:
    """The top-level names of the modules a module imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_finds_imported_modules():
    source = "import os.path\nfrom mmap import mmap\nfrom .model import x\nimport numpy as np\n"
    assert imported_modules(source) == {"os", "mmap", "numpy"}


def test_only_the_worker_module_knows_about_processes():
    # workers.forked_worker shares the parameters, pins BLAS and forks
    knowing = sorted(p.name for p in PACKAGE.glob("*.py")
                     if imported_modules(p.read_text(encoding="utf-8"))
                     & {"multiprocessing", "mmap", "ctypes"})
    assert knowing == ["workers.py"]


def test_the_cli_derives_no_sampler_seed():
    # generate_batch seeds row i with sampler.seed + i; callers pass one sampler
    assert calls_of((PACKAGE / "cli.py").read_text(encoding="utf-8"), "replace",
                    keyword="seed") == 0
