"""Static checks on the package source: every module reads what it imports,
only the model builds progress ids, one function opens every tape, no
module zeroes gradients, only the worker module touches processes and shared
memory, the CLI derives no per-row sampler seed, only render_audio reads
the motif tokens, only model.read_json decodes JSON, the CLI opens the
files it writes in one function, only decoder_batch builds the
cross-attention keys and values, every decoder pass cuts its rotation
tables from one build, the sampler loops over no rows but to draw, and the
CLI scores a result set in one error_rates call.

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


def functions_reading(source: str, attribute: str) -> list:
    """The names of the functions that read attribute of some object, sorted."""
    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, ast.Attribute) and node.attr == attribute
                          for node in ast.walk(fn)))


def test_the_check_finds_the_readers_of_an_attribute():
    source = "def f(s):\n    return s.m[0]\ndef g(s):\n    return s.n\nh = lambda s: s.m\n"
    assert functions_reading(source, "m") == ["f"]


def test_only_render_audio_reads_motif_tokens():
    # it renders its tables from them; SymbolSpec copies them, pickles them
    # and reads their shape
    readers = {p.name: functions_reading(p.read_text(encoding="utf-8"), "motifs")
               for p in PACKAGE.glob("*.py")}
    assert {name: fns for name, fns in readers.items() if fns} == {
        "synthcorpus.py": ["__post_init__", "__reduce__", "n_symbols", "render_audio"]}


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


def functions_calling(source: str, *names: str, owner: str | None = None) -> list:
    """The names of the functions that call one of names, bare or as an
    attribute, sorted; with owner, only the calls owner.name."""
    def calls(node):
        func = getattr(node, "func", None)
        if owner is not None:
            return (isinstance(func, ast.Attribute) and func.attr in names
                    and getattr(func.value, "id", None) == owner)
        return getattr(func, "id", None) in names or getattr(func, "attr", None) in names

    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef) and any(map(calls, ast.walk(fn))))


def test_the_check_finds_the_callers_of_a_function():
    source = ("def f(p):\n    return open(p)\ndef g(p):\n    return p.open()\n"
              "def h(b):\n    return json.loads(b)\ndef k(b):\n    return pickle.loads(b)\n")
    assert functions_calling(source, "open") == ["f", "g"]
    assert functions_calling(source, "load", "loads", owner="json") == ["h"]


def test_only_read_json_decodes_json():
    # so every JSON input names its file and exits 2 on what json cannot read
    readers = {p.name: functions_calling(p.read_text(encoding="utf-8"), "load", "loads",
                                         owner="json")
               for p in PACKAGE.glob("*.py")}
    assert {name: fns for name, fns in readers.items() if fns} == {"model.py": ["read_json"]}


def test_the_cli_writes_files_in_one_function():
    # cli._write opens every file the CLI writes; training opens none
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert functions_calling(cli, "open") == ["_write"] and calls_of(cli, "open") == 1
    assert calls_of((PACKAGE / "training.py").read_text(encoding="utf-8"), "open") == 0


def functions_naming(source: str, *fragments: str) -> list:
    """The names of the functions holding a string, or an f-string's literal
    part, that contains one of fragments, sorted."""
    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                          and any(f in node.value for f in fragments) for node in ast.walk(fn)))


def test_the_check_finds_the_functions_naming_a_string():
    source = ('def f(i):\n    return p[f"dec.{i}.cross.wk"]\n'
              'def g(x):\n    return p[f"{x}.wq"]\n"""a .cross.wk docstring"""\n')
    assert functions_naming(source, ".cross.wk", ".cross.wv") == ["f"]
    assert functions_naming(source, ".wq") == ["g"]


def function_named(source: str, name: str) -> ast.FunctionDef:
    return next(fn for fn in ast.walk(ast.parse(source))
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_only_decoder_batch_builds_the_cross_attention_keys():
    # it projects (and progress-rotates) every layer's text keys and values in
    # one loop, on every uncached pass and on a decode batch's first pass; the
    # cross-attention block only reads them
    model = (PACKAGE / "model.py").read_text(encoding="utf-8")
    assert functions_naming(model, ".cross.wk", ".cross.wv") == ["decoder_batch"]
    assert functions_naming(model, ".wk", ".wv") == ["_self_attention_block", "decoder_batch"]
    assert functions_reading(model, "cross_kv") == ["__init__", "decoder_batch", "select"]
    block = function_named(model, "_cross_attention_block")
    assert "cache" not in [arg.arg for arg in block.args.args + block.args.kwonlyargs]


def test_every_decoder_pass_cuts_its_rotation_tables_from_one_build():
    # decoder_batch builds one integer-position row, which every row shares
    # unbroadcast, and each row's progress over every position it reaches;
    # _pass_tables cuts a pass's columns of both and widens the progress
    model = (PACKAGE / "model.py").read_text(encoding="utf-8")
    assert functions_calling(model, "widen_table") == ["_pass_tables"]
    assert functions_calling(model, "_pass_tables") == ["decoder_batch"]
    assert calls_of(model, "broadcast_to") == 0
    assert not [p.name for p in PACKAGE.glob("*.py")
                if calls_of(p.read_text(encoding="utf-8"), "progress_ids", keyword="start")]


def test_the_sampler_loops_only_to_draw():
    # every row's support, mass, cdf and token come from whole-matrix array
    # ops; the one comprehension draws each row's uniform from its generator
    sampler = function_named((PACKAGE / "decoding.py").read_text(encoding="utf-8"),
                             "filter_and_sample")
    assert not [node for node in ast.walk(sampler) if isinstance(node, (ast.For, ast.While))]
    loops = [ast.unparse(node) for node in ast.walk(sampler)
             if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
    assert loops == ["[rng.random() for rng in rngs]"]


def test_evaluate_model_scores_in_one_error_rates_call():
    evaluate = ast.unparse(function_named((PACKAGE / "cli.py").read_text(encoding="utf-8"),
                                          "evaluate_model"))
    assert calls_of(evaluate, "error_rates") == 1 and calls_of(evaluate, "error_rate") == 0
