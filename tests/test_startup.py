"""What a fresh interpreter loads, and the CLI run as ``python -m``.

Every other CLI test calls ``cli.main`` in-process, where the whole
package is already imported; these tests start new interpreters, so a
handler that forgets to import what it runs fails here.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from idealforms import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

# run one verb in-process with its output swallowed, then print its exit
# code and every loaded module; the probe itself imports nothing that the
# CLI may not
LOADED_AFTER = """
import contextlib, io, sys
from idealforms import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse's help or usage error
        code = exc.code
print(code, " ".join(sys.modules))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV)


@functools.cache  # one interpreter per argv, however many tests read it
def _exit_and_modules(*argv: str) -> tuple[int, frozenset[str]]:
    proc = _python("-c", LOADED_AFTER, *argv)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return int(code), frozenset(modules)


def _modules_after(*argv: str) -> frozenset[str]:
    code, modules = _exit_and_modules(*argv)
    assert code == 0, argv
    return modules


def _loaded_after(*argv: str) -> set[str]:
    return {m.split(".")[1] for m in _modules_after(*argv) if m.startswith("idealforms.")}


def test_each_verb_loads_only_what_it_runs():
    normalize = _loaded_after("normalize", "omega(FIN)")
    assert normalize == {"cli", "cli_ideals", "errors", "hashcons", "ideals", "ordinals", "text"}
    assert not normalize & {"oracle", "classification", "membership", "orders",
                            "quotient", "rank", "trees", "witnesses"}
    wo = _loaded_after("wo", "classify", "cat(N,rev(N))")
    assert "orders" in wo and not wo & {"oracle", "trees", "membership"}
    enum = _loaded_after("enumerate", "chain", "--budget", "3,3,10")
    assert "oracle" in enum and not enum & {"orders", "classification", "rank"}


# one argv per verb, the handler module that its row of the verb table
# names, and the modules besides those two and EVERY_VERB that it loads
EVERY_VERB = {"cli", "errors", "hashcons", "ideals", "ordinals", "text"}
VERB_ARGV = [
    (["normalize", "omega(FIN)"], "cli_ideals", ""),
    (["rank", "P(w*2+3)"], "cli_ideals", ""),
    (["perp", "P(w^2+1)"], "cli_ideals", ""),
    (["iso", "P(1)", "Q(1)"], "cli_ideals", ""),
    (["compile", "Q(2)"], "cli_ideals", "trees"),
    (["compile", "P(1)", "--emit", "dot"], "cli_ideals", "oracle queries trees"),
    (["--json", "compile", "P(2)", "--emit", "json", "--count", "50"], "cli_ideals",
     "oracle queries trees"),
    (["classify", "fan([];qdiag(w^2))"], "cli_schemas", "classification rank trees"),
    (["--json", "classify", "spine([full];const(chain))"], "cli_schemas",
     "classification rank trees witnesses"),
    (["treerank", "fan([];qdiag(w))"], "cli_schemas", "rank trees"),
    (["member", "fan([chain];const(empty))", "in", "P(1)", "--perp"], "cli_schemas",
     "membership queries trees"),
    (["frechet", "fan([];const(chain))", "in", "P(1)"], "cli_schemas",
     "membership oracle queries trees witnesses"),
    (["idwitness", "spine([];const(chain))"], "cli_schemas",
     "membership oracle queries trees witnesses"),
    (["idwitness", "fan([];const(chain))"], "cli_schemas",
     "membership oracle queries trees witnesses"),
    (["enumerate", "transversal(fan([];const(chain)))", "--budget", "4,4,10"], "cli_oracle",
     "oracle queries trees"),
    (["selftest", "--trials", "1"], "cli_oracle",
     "classification laws membership oracle orders queries quotient rank trees witnesses"),
    (["wo", "classify", "cat(N,rev(N))"], "cli_orders", "orders"),
    (["wo", "reverse", "cat(N,QQ)"], "cli_orders", "orders"),
    (["wo", "rationalize", "rev(N)", "--count", "5"], "cli_orders", "orders"),
]
HANDLER_MODULES = {"cli_ideals", "cli_schemas", "cli_oracle", "cli_orders"}
# the verbs that check a witness or enumerate, through the checker kernel
KERNEL_VERBS = {"compile", "frechet", "idwitness", "enumerate"}


@pytest.mark.parametrize("argv, handler, more", VERB_ARGV,
                         ids=[" ".join(a) for a, _, _ in VERB_ARGV])
def test_each_verb_loads_its_own_handler_module_and_no_law(argv, handler, more):
    loaded = _loaded_after(*argv)
    assert loaded == EVERY_VERB | {handler} | set(more.split())
    assert loaded & HANDLER_MODULES == {handler}
    verb = next(a for a in argv if a != "--json")
    assert ("laws" in loaded) == (verb == "selftest")
    if verb in KERNEL_VERBS:
        assert not loaded & {"laws", "orders", "classification", "rank"}, argv
    if verb == "enumerate" or "--emit" in argv:  # the kernel alone: no decision procedure
        assert "oracle" in loaded and not loaded & {"membership", "quotient", "witnesses"}, argv


def _function_imports(module: str) -> list[tuple[str, str]]:
    """(function, module it imports) for each import inside a function of
    ``idealforms.<module>``, read from its source."""
    tree = ast.parse(Path(SRC, "idealforms", f"{module}.py").read_text(encoding="utf-8"))
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                out += [(fn.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                out += [(fn.name, f"idealforms.{a.name}") for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                out.append((fn.name, f"idealforms.{node.module}" if node.level else node.module))
    return out


def test_no_law_imports_inside_a_function():
    # only law_suite loads the laws, and it runs every one of them
    assert _function_imports("laws") == []


@pytest.mark.parametrize("handler", sorted(HANDLER_MODULES))
def test_no_handler_imports_what_every_verb_of_its_module_loads(handler):
    # an import inside a handler must spare some verb of its module a
    # module that the verb does not run; the rest belong at the top
    always = frozenset.intersection(*(_modules_after(*argv) for argv, h, _ in VERB_ARGV
                                      if h == handler))
    assert [(fn, m) for fn, m in _function_imports(handler) if m in always] == []


FULL_PARSER = """
import contextlib, io, sys
from idealforms import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        cli._build_parser().parse_args(sys.argv[1:])
        code = None
    except SystemExit as exc:
        code = exc.code
print(repr((code, out.getvalue(), err.getvalue())))
"""


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--json", "-h"], ["wo", "-h"], ["normalize", "-h"], ["nosuch"],
    ["normalize"], ["compile", "P(1)", "--emit", "png"], ["wo", "nosuch"],
])
def test_help_and_usage_errors_match_the_whole_parser(argv):
    # a fresh `python -m idealforms.cli` builds one verb's parser, or all of
    # them; its exit code and text must be those of the parser of every verb
    env = {**ENV, "COLUMNS": "80"}
    cold = subprocess.run([sys.executable, "-m", "idealforms.cli", *argv], capture_output=True,
                          text=True, env=env)
    full = subprocess.run([sys.executable, "-c", FULL_PARSER, *argv], capture_output=True,
                          text=True, env=env)
    assert full.returncode == 0, full.stderr
    code, out, err = ast.literal_eval(full.stdout)
    assert code is not None and (cold.returncode, cold.stdout, cold.stderr) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["normalize", "omega(FIN)"],
    ["classify", "full"],
    ["frechet", "fan([];const(chain))", "in", "P(1)"],
    ["enumerate", "chain", "--budget", "3,3,10"],
    ["wo", "classify", "cat(N,rev(N))"],
    ["--json", "normalize", "omega(FIN)"],
    ["compile", "P(1)", "--emit", "json"],
])
def test_no_verb_loads_dataclasses_and_json_only_on_request(argv):
    loaded = _modules_after(*argv)
    assert not loaded & {"dataclasses", "inspect"}
    assert ("json" in loaded) == ("json" in argv or "--json" in argv)


# what only help and usage errors load
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [argv for argv, _, _ in VERB_ARGV],
                         ids=[" ".join(a) for a, _, _ in VERB_ARGV])
def test_no_well_formed_argv_loads_argparse(argv):
    assert not _modules_after(*argv) & PARSER_MODULES


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0), (["normalize", "--help"], 0), (["compile", "P(1)", "--emit", "png"], 2),
])
def test_help_and_usage_errors_still_load_argparse(argv, code):
    got, modules = _exit_and_modules(*argv)
    assert got == code and PARSER_MODULES <= modules


def test_fractions_and_heapq_load_only_where_they_are_used():
    # a scattered order builds no Fraction; one stream needs no merge
    assert not _modules_after("wo", "classify", "cat(N,rev(N))") & {"fractions", "decimal"}
    assert "fractions" in _modules_after("wo", "reverse", "cat(N,QQ)")
    assert "heapq" not in _modules_after("enumerate", "chain", "--budget", "4,4,20")


def test_importing_the_cli_loads_no_parser():
    proc = _python("-c", f"import sys, idealforms.cli\nprint(sorted({PARSER_MODULES!r} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_bare_import_loads_no_submodule():
    proc = _python("-c", "import sys, idealforms\n"
                         "print(sorted(m for m in sys.modules if m.startswith('idealforms.')))\n"
                         "print(idealforms.ordinals.from_int(3))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "3"]


def test_import_changes_no_recursion_limit():
    # importing the package and every submodule leaves the process-wide
    # setting alone: no walker needs a frame per level of its input
    proc = _python("-c", "import importlib, pkgutil, sys\n"
                         "before = sys.getrecursionlimit()\n"
                         "import idealforms\n"
                         "for m in pkgutil.iter_modules(idealforms.__path__):\n"
                         "    importlib.import_module(f'idealforms.{m.name}')\n"
                         "print(before, sys.getrecursionlimit(),\n"
                         "      sum(m.startswith('idealforms.') for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    before, after, loaded = proc.stdout.split()
    assert before == after and int(loaded) == len(list(Path(SRC, "idealforms").glob("[a-z]*.py")))


def test_import_and_main_leave_the_collector_alone():
    # only the console entry freezes the collector; importing every
    # submodule and running a verb through cli.main change no setting
    proc = _python("-c", "import contextlib, gc, importlib, io, pkgutil\n"
                         "before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
                         "import idealforms\n"
                         "for m in pkgutil.iter_modules(idealforms.__path__):\n"
                         "    importlib.import_module(f'idealforms.{m.name}')\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    assert idealforms.cli.main(['classify', 'spine([full];const(chain))']) == 0\n"
                         "after = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()\n"
                         "print(before == after)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


# run the module as `python -m` does and report, on the last line, the
# exit code and how many objects the collector then leaves frozen
RUN_AS_MAIN = """
import gc, runpy
try:
    runpy.run_module("idealforms.cli", run_name="__main__")
    code = None
except SystemExit as exc:
    code = exc.code
print(code, gc.get_freeze_count())
"""


@pytest.mark.parametrize("argv", [
    ["normalize", "omega(FIN)"],
    ["normalize", "limsum(3)"],  # an engine error's exit code
    ["compile", "P(1)", "--emit", "png"],  # argparse's SystemExit
])
def test_the_console_entry_freezes_the_collector_on_every_way_out(capsys, argv):
    proc = _python("-c", RUN_AS_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    code, frozen = proc.stdout.splitlines()[-1].split()
    try:
        expected = cli.main(argv)
    except SystemExit as exc:
        expected = exc.code
    capsys.readouterr()
    assert int(code) == expected and int(frozen) > 0


def test_the_installed_script_runs_the_console_entry():
    # the script and `python -m` take one path out of the process
    pyproject = Path(SRC).parent.joinpath("pyproject.toml").read_text(encoding="utf-8")
    assert 'idealforms = "idealforms.cli:entry"' in pyproject.splitlines()


@pytest.mark.parametrize("argv, code", [
    (["normalize", "omega(FIN)"], 0),
    (["enumerate", "transversal(fan([];const(chain)))", "--budget", "4,4,10"], 0),
    (["normalize", "omega("], 1),
    (["normalize", "limsum(3)"], 2),
    (["idwitness", "fan([];const(chain))"], 0),
    (["--json", "wo", "classify", "rev(osum([];N))"], 0),
])
def test_cold_start_matches_in_process(capsys, argv, code):
    proc = _python("-m", "idealforms.cli", *argv)
    assert cli.main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert "Traceback" not in proc.stderr
