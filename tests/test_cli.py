"""CLI verbs, exit codes and JSON schema conformance."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

jsonschema = pytest.importorskip("jsonschema")

from idealforms import cli, laws, oracle, trees
from idealforms.errors import ParseError
from idealforms.text import parse_tree


SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _registry():
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(doc)))
    return Registry().with_resources(resources)


def _validate(payload: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    try:
        validator = jsonschema.Draft202012Validator(schema, registry=_registry())
    except TypeError:  # older jsonschema without the referencing API
        resolver = jsonschema.RefResolver(
            base_uri=f"{SCHEMA_DIR.as_uri()}/", referrer=schema
        )
        validator = jsonschema.Draft202012Validator(schema, resolver=resolver)
    validator.validate(payload)


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, schema_name, *argv) -> dict:
    code, out = run(capsys, "--json", *argv)
    assert code == 0, out
    payload = json.loads(out)
    _validate(payload, schema_name)
    return payload


def test_normalize(capsys):
    code, out = run(capsys, "normalize", "omega(FIN)")
    assert code == 0 and out.strip() == "P(1)"
    payload = run_json(capsys, "canonical_form.json", "normalize", "omega(FIN)")
    assert payload == {"kind": "P", "rank": "1", "printed": "P(1)"}


def test_rank_and_perp(capsys):
    assert run(capsys, "rank", "limsum(w*2)") == (0, "w*2\n")
    assert run(capsys, "perp", "P(3)")[1].strip() == "Q(3)"
    run_json(capsys, "rank.json", "rank", "P(w)")
    run_json(capsys, "canonical_form.json", "perp", "mix(P(1);omega(FIN))")


def test_iso(capsys):
    code, out = run(capsys, "iso", "P(1)", "Q(1)")
    assert code == 0 and out.strip() == "non-isomorphic"
    payload = run_json(capsys, "iso.json", "iso", "sum(P(2),Q(1))", "P(2)")
    assert payload["isomorphic"] is True


def test_compile_and_emitters(capsys):
    code, out = run(capsys, "compile", "P(1)")
    assert code == 0 and out.strip() == "fan([];const(chain))"
    payload = run_json(capsys, "compile.json", "compile", "P(1)", "--emit", "json",
                       "--depth", "2", "--width", "1")
    assert payload["elements"] == [[0, 0], [1, 0]]
    payload = run_json(capsys, "compile.json", "compile", "FIN", "--emit", "dot")
    assert payload["dot"].startswith("digraph")


def test_classify_verbs(capsys):
    code, out = run(capsys, "classify", "full")
    assert code == 0 and out.startswith("NON-BOREL")
    payload = run_json(capsys, "classify.json", "classify", "full")
    assert payload["verdict"] == "non-borel"
    payload = run_json(capsys, "classify.json", "classify",
                       "spine([];const(fan([];const(eps))))", "--via", "derivative")
    assert payload == {"verdict": "borel",
                       "form": {"kind": "Q", "rank": "1", "printed": "Q(1)"}}


def test_treerank(capsys):
    code, out = run(capsys, "treerank", "fan([];const(chain))")
    assert code == 0 and out.strip() == "rank 2, core empty"
    payload = run_json(capsys, "treerank.json", "treerank", "fan([];qdiag(w))")
    assert payload == {"rank": "w+1", "coreEmpty": True}


def test_member_and_witness_verbs(capsys):
    code, out = run(capsys, "member", "fan([chain];const(empty))", "in", "P(1)")
    assert code == 0 and out.startswith("not a member")
    payload = run_json(capsys, "member.json", "member",
                       "fan([chain];const(empty))", "in", "P(1)", "--perp")
    assert payload["member"] is True
    # the fan holds <n,1>, outside P(1); the picks <n,0> do not
    code, out = run(capsys, "member", "transversal(fan([];const(fan([full];const(empty)))))",
                    "in", "P(1)")
    assert code == 0 and out.startswith("member of P(1)")
    payload = run_json(capsys, "witness.json", "frechet",
                       "fan([];const(chain))", "in", "P(1)")
    assert payload["kind"] == "frechet-subset"
    payload = run_json(capsys, "witness.json", "idwitness", "spine([];const(chain))")
    assert payload["kind"] == "dominating-branch"
    assert payload["data"] == {"prefix": [], "period": [1]}
    payload = run_json(capsys, "witness.json", "idwitness", "fan([];const(eps))")
    assert payload["kind"] == "unbounded-family"


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "chain", "--budget", "3,3,10")
    assert code == 0 and out.split() == ["<0>", "<0,0>", "<0,0,0>"]
    run_json(capsys, "enumerate.json", "enumerate",
             "transversal(fan([];const(chain)))", "--budget", "4,4,10")


def test_wo_verbs(capsys):
    code, out = run(capsys, "wo", "classify", "cat(N,rev(N))")
    assert code == 0 and out.strip() == "scattered, PQ(0)"
    payload = run_json(capsys, "wo_classify.json", "wo", "classify", "QQ")
    assert payload["scattered"] is False
    payload = run_json(capsys, "wo_reverse.json", "wo", "reverse", "osum([];rev(N))")
    assert payload["classification"]["form"]["printed"] == "Q(1)"
    payload = run_json(capsys, "wo_rationalize.json", "wo", "rationalize",
                       "cat(N,rev(N))", "--count", "4")
    assert payload["rationals"] == ["-1", "1", "-1/2", "1/2"]


def test_selftest(capsys):
    payload = run_json(capsys, "selftest.json", "selftest", "--seed", "5", "--trials", "2")
    assert payload["allPass"] is True


def test_selftest_reports_the_failures_of_a_planted_law_table(monkeypatch, capsys):
    # the suite alone decides a trial's outcome and writes its text: a
    # falsy answer fails with the drawn args, a raise with the exception,
    # and VACUOUS passes without counting as checked
    drawn = []

    def draw(rng):
        drawn.append(laws.rand_schema(rng, 4))
        return (drawn[-1],)

    monkeypatch.setattr(laws, "LAWS", (
        ("no-chain", draw, lambda t: "chain" not in str(t)),
        ("raises", draw, lambda t: 1 // 0),
        ("vacuous", draw, lambda t: laws.VACUOUS),
    ))
    report = oracle.law_suite(3, 20)
    chains = [t for t in drawn[:20] if "chain" in str(t)]
    no_chain, raises, vacuous = report.laws
    assert 0 < no_chain.failures == len(chains) < 20 and no_chain.checked == 20
    assert parse_tree(no_chain.first_counterexample) is chains[0]
    assert (raises.failures, raises.checked) == (20, 20)
    assert raises.first_counterexample.startswith("exception: ZeroDivisionError")
    assert (vacuous.failures, vacuous.checked, vacuous.first_counterexample) == (0, 0, None)
    assert not report.all_pass
    code, out = run(capsys, "selftest", "--seed", "3", "--trials", "20")
    assert code == 3 and out.splitlines()[-1] == "LAW VIOLATED"
    assert f"  first: {no_chain.first_counterexample}" in out
    assert "ok   vacuous: 20/20 (0 checked)" in out.splitlines()
    code, out = run(capsys, "--json", "selftest", "--seed", "3", "--trials", "20")
    assert code == 3
    _validate(json.loads(out), "selftest.json")


SELFTEST_SHA = "d3cb29b28e6bb278"  # sha256 prefix of `--json selftest --seed 42 --trials 50`


def test_the_selftest_report_is_pinned_also_under_python_O(capsys):
    # the laws hold no assert that python -O strips: both runs print the same bytes
    argv = ["--json", "selftest", "--seed", "42", "--trials", "50"]
    assert cli.main(argv) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-m", "idealforms.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    outs = [capsys.readouterr().out, proc.stdout]
    assert [hashlib.sha256(o.encode()).hexdigest()[:16] for o in outs] == [SELFTEST_SHA] * 2


def test_selftest_says_how_many_trials_a_law_checked(capsys):
    # a law whose guard leaves trials vacuous says how many it checked;
    # the JSON report keeps its pinned bytes
    code, out = run(capsys, "selftest", "--seed", "42", "--trials", "50")
    assert code == 0 and [line for line in out.splitlines() if line.endswith(" checked)")] == [
        "ok   domination-budget: 50/50 (4 checked)",
        "ok   rank-oracle-agreement: 50/50 (38 checked)",
        "ok   membership-never-both: 50/50 (49 checked)",
        "ok   orthogonality-stabilizes: 50/50 (1 checked)",
        "ok   dense-embedding: 50/50 (31 checked)",
    ]


def test_exit_codes(capsys):
    assert run(capsys, "normalize", "omega(")[0] == 1
    assert run(capsys, "normalize", "limsum(3)")[0] == 2
    assert run(capsys, "classify", "eps")[0] == 2
    assert run(capsys, "member", "finset{<1,1>}", "in", "FIN")[0] == 2
    assert run(capsys, "member", "chain", "inn", "FIN")[0] == 1
    assert run(capsys, "treerank", "fan([;const(eps))")[0] == 1
    # the query's tail starts one block later than the target's: not a subset
    for argv in (("member",), ("member", "--perp"), ("frechet",)):
        assert cli.main([*argv, "fan([empty];qdiag(w))", "in", "P(w)"]) == 2
        assert capsys.readouterr().err.startswith("NotASubset:")
    # well-formed arguments out of range: one line naming the argument
    for argv, named in (
        (("enumerate", "chain", "--budget", "0,0,0"), "budget"),
        (("member", "finset{<0,0>,<0,0>}", "in", "P(1)"), "finset{<0,0>,<0,0>}"),
        (("wo", "rationalize", "N", "--count", "-1"), "--count"),
        (("selftest", "--trials", "-1"), "trials"),
        (("compile", "P(1)", "--emit", "json", "--count", "-1"), "budget"),
    ):
        assert cli.main(list(argv)) == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1, err
    # numbers are ASCII digits: another Unicode digit or an underscore in
    # a budget field is a parse error
    for budget in ("\u0663,3,10", "3,3,1_0", "3,+3,10", "3, 3,10"):
        assert cli.main(["enumerate", "chain", "--budget", budget]) == 1
        assert capsys.readouterr().err.startswith("parse error: budget")
    # argv that argparse rejects (a missing argument, an unknown choice, a
    # number not in ASCII digits) exits 2 with a usage line
    for argv in (
        ("normalize",), ("compile", "P(1)", "--emit", "png"),
        ("compile", "P(1)", "--depth", "\uff13"), ("compile", "P(1)", "--width", "1_0"),
        ("compile", "P(1)", "--count", "\u0663"), ("selftest", "--seed", "\u00b2"),
        ("selftest", "--trials", "1_0"), ("wo", "rationalize", "N", "--count", "+3"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: idealforms") and "Traceback" not in err, err


def test_an_undecided_containment_names_where_the_pair_budget_ran_out(capsys):
    # the walk spends the last pair of its budget on <2,0,1,0,0,1>; one
    # pair fewer would stop it at <2,0,1,0,0,0>
    q, target = "fan([];qdiag(w^(w^w^2*3+2)))", "P(w^(w^w^2*3+2)+1)"
    assert cli.main(["member", q, "in", target]) == 2
    assert capsys.readouterr().err == (
        f"UnknownContainment: containment of {q} in {target} undecided: "
        "the walk stopped at <2,0,1,0,0,1>\n")


# seeded term texts of each sort, and the 17 verb forms they fill
DRAW = {
    "expr": lambda rng: str(laws.rand_expr(rng, 6)),
    "tree": lambda rng: str(laws.rand_schema(rng, 6)),
    "query": lambda rng: str(laws.rand_query(rng, trees.compile_ideal(laws.rand_expr(rng, 3)))),
    "order": lambda rng: str(laws._rand_order(rng, 6, dense=True)),
}
FUZZ_FORMS = [
    ("normalize", "expr"), ("rank", "expr"), ("perp", "expr"), ("iso", "expr", "expr"),
    ("compile", "expr"), ("compile", "expr", "--emit", "json"),
    ("classify", "tree"), ("classify", "tree", "--via", "derivative"), ("treerank", "tree"),
    ("member", "query", "in", "expr"), ("member", "query", "in", "expr", "--perp"),
    ("frechet", "query", "in", "expr"), ("idwitness", "query"),
    ("enumerate", "query", "--budget", "4,4,20"),
    ("wo", "classify", "order"), ("wo", "reverse", "order"), ("wo", "rationalize", "order"),
]


def test_seeded_terms_whole_and_cut_keep_the_exit_code_contract(capsys):
    # an answer, or one documented error line with its exit code, and never
    # a traceback; a term cut short is a parse error
    rng = random.Random(31)
    for n in range(18 * len(FUZZ_FORMS)):
        form = FUZZ_FORMS[n % len(FUZZ_FORMS)]
        argv = [DRAW[w](rng) if w in DRAW else w for w in form]
        k = next(i for i, w in enumerate(form) if w in DRAW)
        cut = [*argv[:k], argv[k][:rng.randrange(len(argv[k]))], *argv[k + 1:]]
        for args in (argv, cut):
            try:
                code = cli.main(args)
                err = capsys.readouterr().err
                assert code == 0 or len(err.splitlines()) == 1, (args, err)
            except SystemExit as exc:  # argparse: its usage, then one error line
                code, err = exc.code, capsys.readouterr().err
                assert err.startswith("usage: idealforms") and err.count(": error: ") == 1, err
                assert err.splitlines()[-1].startswith("idealforms"), (args, err)
            assert code in (0, 1, 2) and "Traceback" not in err, (args, err)
        assert code == 1, (cut, err)


# the argv corpus of the verb table: a term for each positional, by its
# name, and a value besides the default for each converter
TERMS = {"expr": "P(1)", "expr1": "P(1)", "expr2": "Q(1)", "tree": "fan([];const(chain))",
         "query": "fan([chain];const(empty))", "in_kw": "in", "order": "cat(N,QQ)"}
OTHER = {cli._integer: "3", cli._budget: "3,3,10"}
REFUSED = {"x", "png"}  # a value that each converter or choice refuses


def _option_values(kw: dict) -> list[list[str]]:
    """The value tokens of an option: none for a flag; else its default or
    each choice, one other value, and one that is refused."""
    if "action" in kw:
        return [[]]
    if "choices" in kw:
        return [[c] for c in (*kw["choices"], "png")]
    default = kw["default"]
    return [[",".join(map(str, default)) if type(default) is tuple else str(default)],
            [OTHER[kw["type"]]], ["x"]]


def _argv_corpus(seed: int = 39) -> tuple[list[list[str]], list[list[str]]]:
    """Every verb's argv, with and without ``--json``, each option at each
    of its values before, between and after the positionals, and all of a
    verb's options at once; then token-level mutations of each, at seeded
    places: an inserted help flag, ``--``, abbreviation, ``=``-joined value,
    repeated option or ``-1``, and a dropped or repeated token."""
    rng = random.Random(seed)
    rows = [([verb], row) for verb, row in cli._VERBS.items() if verb != "wo"]
    rows += [(["wo", verb], row) for verb, row in cli._WO.items()]
    whole: dict[tuple[str, ...], list[str]] = {}  # argv -> the option group its mutants repeat
    for path, (_, _, *specs) in rows:
        free = [TERMS[name] for name, _ in specs if name[0] != "-"]
        opts = [(name, kw) for name, kw in specs if name[0] == "-"]
        groups = [[opt, *value] for opt, kw in opts for value in _option_values(kw)]
        for head in ([], ["--json"]):
            start = (*head, *path)
            whole.setdefault((*start, *free), head)
            for group in groups:
                for k in range(len(free) + 1):
                    whole.setdefault((*start, *free[:k], *group, *free[k:]), group)
            gaps = [[] for _ in range(len(free) + 1)]  # the options before each positional
            for opt, kw in opts:
                rng.choice(gaps).extend([opt, *rng.choice(_option_values(kw))])
            whole.setdefault((*start, *gaps[0], *(t for term, gap in zip(free, gaps[1:])
                                                  for t in (term, *gap))), head)
    mutants = []
    for argv, group in whole.items():
        group = group or ["--json"]
        for extra in (["-h"], ["--help"], ["--"], [group[0][:4]], ["--count=3"], group, ["-1"]):
            k = rng.randrange(len(argv) + 1)
            mutants.append((*argv[:k], *extra, *argv[k:]))
        k = rng.randrange(len(argv))
        mutants += [argv[:k] + argv[k + 1:], argv[:k + 1] + argv[k:]]
    return [list(argv) for argv in whole], [list(argv) for argv in dict.fromkeys(mutants)]


def _namespace(parse, argv: list[str]):
    """The attributes that ``parse(argv)`` returns, its ParseError, or the
    code with which argparse exits."""
    try:
        args = parse(argv)
    except ParseError as exc:
        return "ParseError", str(exc)
    except SystemExit as exc:
        return "exit", exc.code
    return args if args is None else vars(args)


def test_the_verb_table_parses_as_argparse_wherever_it_accepts():
    # main reads a well-formed argv from the verb's row without argparse;
    # where it does, it must return argparse's namespace or ParseError
    whole, mutants = _argv_corpus()
    for argv in whole:
        if not REFUSED & set(argv):
            assert isinstance(_namespace(cli._table_args, argv), dict), argv
    accepted = 0
    for argv in whole + mutants:
        fast = _namespace(cli._table_args, argv)
        if fast is not None:
            accepted += 1
            assert fast == _namespace(lambda a: cli._build_parser(a).parse_args(a), argv), argv
    assert (len(whole), len(mutants), accepted) == (134, 1192, 140)


def test_the_verb_table_holds_only_what_the_table_reader_reads():
    # _table_args reads each spec as it stands and checks none of this at
    # run time: a row that argparse would read otherwise must not be added
    specs = [spec for table in (cli._VERBS, cli._WO) for row in table.values() for spec in row[2:]]
    assert specs
    for name, kw in specs:
        assert type(name) is str and "-" not in name.lstrip("-"), name  # lstrip is argparse's dest
        assert kw.get("action", "store_true") == "store_true", name
        assert kw.keys() <= {"action", "choices", "default", "metavar", "type"}, name
        assert not ("type" in kw and isinstance(kw.get("default"), str)), name  # argparse converts it


def test_mutated_argv_keep_the_exit_code_contract(capsys, monkeypatch):
    # argparse's help or usage text, an answer, or one error line.  selftest
    # at its default 50 trials is the dearest verb here, and a seeded law
    # suite answers the same to the same arguments: run it once for each
    from idealforms import cli_oracle

    run = cli_oracle._cmd_selftest
    selftest = functools.cache(lambda key: run(SimpleNamespace(**dict(key))))
    monkeypatch.setattr(cli_oracle, "_cmd_selftest",
                        lambda args: selftest(tuple(sorted(vars(args).items()))))
    _, mutants = _argv_corpus()
    for argv in mutants:
        try:
            code = cli.main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
        err = capsys.readouterr().err
        # 3, an internal failure, is always a bug
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        if usage and code:
            assert err.startswith("usage: idealforms") and err.count(": error: ") == 1, (argv, err)
        else:
            assert len(err.splitlines()) == (code != 0), (argv, err)


def test_running_out_of_memory_is_no_internal_failure(capsys, monkeypatch):
    # a request too large for the machine is not a bug: exit 2, one line
    from idealforms import cli_ideals

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli_ideals, "_cmd_normalize", exhausted)
    assert cli.main(["normalize", "FIN"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("MemoryError:") and "memory" in err.split(":", 1)[1], err
    assert len(err.splitlines()) == 1, err


def test_each_verb_row_names_a_handler():
    # main calls the _cmd_<verb> of the module that the verb's row names;
    # a handler that no row names is dead code (test_trees)
    import importlib
    import types

    rows = [(verb, row[0]) for verb, row in cli._VERBS.items() if verb != "wo"]
    rows += [(verb, row[0]) for verb, row in cli._WO.items()]
    for verb, module in rows:
        handler = getattr(importlib.import_module(f"idealforms.{module}"), f"_cmd_{verb}", None)
        assert isinstance(handler, types.FunctionType), (module, verb)


def _parse(capsys, argv: list[str], one_verb: bool) -> tuple:
    """What parsing ``argv`` returns, or its exit code, and what it prints,
    with the parser built for ``argv`` or the one that holds every verb."""
    parser = cli._build_parser(argv) if one_verb else cli._build_parser()
    try:
        out = vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = exc.code
    return out, capsys.readouterr()


def test_the_one_verb_parser_parses_as_the_whole_parser(capsys):
    # main builds the subparser of the verb that argv names, or every one
    # when it names none or an unknown one; help, usage errors and parsed
    # arguments must not tell the two apart
    pinned = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "pinned"
                         / "cli.json").read_text())
    argvs = [case["argv"] for case in pinned]
    assert len(argvs) == 53
    verbs = cli._build_parser()._subparsers._group_actions[0].choices
    wo = verbs["wo"]._subparsers._group_actions[0].choices
    argvs += [[], ["--help"], ["-h", "normalize"], ["--json"], ["nosuch"], ["--json", "nosuch", "x"],
              ["--js", "normalize", "P(1)"], ["normalize", "--json", "P(1)"], ["wo"], ["wo", "nosuch"],
              ["normalize"], ["compile", "P(1)", "--emit", "png"], ["selftest", "--trials", "1_0"]]
    argvs += [[verb, "--help"] for verb in verbs] + [["wo", verb, "--help"] for verb in wo]
    for argv in argvs:
        assert _parse(capsys, argv, True) == _parse(capsys, argv, False), argv
    assert len(verbs) == 13 and len(wo) == 3


def test_a_closed_stdout_exits_quietly():
    # the reader of the pipe has gone before the verb writes, as `| head`
    # does: no traceback, and the exit code the verb would have returned
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (["enumerate", "fan([];pdiag(w))"], ["selftest", "--trials", "0"],
                 ["--json", "normalize", "P(w)"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "idealforms.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b""), argv


def test_a_failed_witness_check_fails_under_python_O():
    # the self-checks behind checkedAtBudget are not asserts, which -O strips:
    # a witness whose check fails is an internal failure, never printed
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = ("import sys\nfrom idealforms import cli, oracle\n"
              "oracle.check_witness = lambda *args: False\nsys.exit(cli.main(sys.argv[1:]))")
    for argv in (["frechet", "fan([];const(chain))", "in", "P(1)"],
                 ["idwitness", "spine([];const(chain))"]):
        proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                              capture_output=True, text=True, env=env)
        lines = proc.stderr.splitlines()
        assert (proc.returncode, proc.stdout, len(lines)) == (3, "", 1), (argv, proc.stderr)
        assert lines[0].startswith("internal failure: AssertionError: emitted"), lines


# --------------------------------------------------------------------------
# depth: no verb spends a Python frame per level of its input

DEEP = 50000


def _nest(open_: str, leaf: str, close: str = ")") -> str:
    return open_ * DEEP + leaf + close * DEEP


def _deep_argv() -> list[tuple[list[str], int, str | None]]:
    """(argv, exit code, first output line or None), for inputs of every
    sort nested DEEP levels."""
    tower = "w^(" * DEEP + "1" + ")" * DEEP  # w^(w^(...(w^(1)))) = w^w^...^w
    rooted = _nest("rooted(", "chain")
    left = "union(" * DEEP + "fan([chain];const(empty))" + ",chain)" * DEEP
    right = _nest("union(chain,", "fan([chain];const(empty))")
    rev, cat = _nest("rev(", "N"), _nest("cat(N,", "N")
    return [
        # the deep inputs of ROADMAP's table
        (["normalize", _nest("perp(", "FIN")], 0, "FIN"),
        (["normalize", f"P({tower})"], 0, "P(" + "w^" * (DEEP - 1) + "w)"),
        (["member", left, "in", "FIN"], 0, "not a member of FIN"),
        (["enumerate", left], 0, "<0>"),
        (["idwitness", left], 0, "dominating branch [0](0)*"),
        (["enumerate", rooted], 0, "<>"),
        (["wo", "classify", rev], 0, "scattered, POW"),
        (["wo", "classify", cat], 0, "scattered, POW"),
        (["classify", rooted], 0, "BOREL FIN"),
        (["treerank", rooted], 0, "rank 1, core empty"),
        (["wo", "rationalize", cat], 0, "-1, 1/2, -1/2, 3/2, -1/4, 3/4, -1/8, 5/2, -1/16, 7/8"),
        # every other sort and nest
        (["normalize", _nest("omega(", "FIN")], 0, "P(1)"),
        (["normalize", _nest("sum(", "FIN")], 0, "FIN"),
        (["normalize", _nest("mix(", "FIN", ";omega(FIN))")], 0, "P(1)"),
        (["normalize", "limsum(" + "w^" * DEEP + "1)"], 0, "P(" + "w^" * (DEEP - 1) + "w)"),
        (["classify", _nest("fan([", "chain", "];const(empty))")], 0, "BOREL FIN"),
        (["treerank", _nest("spine([", "chain", "];const(empty))")], 0, "rank 1, core empty"),
        (["idwitness", right], 0, "dominating branch [0](0)*"),
        (["wo", "classify", _nest("osum([N];", "N")], 0, "scattered, POW"),
    ]


def test_deep_input_under_the_default_recursion_limit(capsys):
    assert sys.getrecursionlimit() < DEEP
    for argv, code, first in _deep_argv():
        got = cli.main(argv)
        out, err = capsys.readouterr()
        assert (got, err) == (code, ""), (argv[:2], got, err[:200])
        if first is not None:
            assert out.splitlines()[0] == first, (argv[:2], out[:200])


def test_membership_in_a_huge_standard_copy_reads_only_the_levels_it_needs(capsys):
    # a chain unfolds as far as the answer reads it: <0,1> leaves P(10^8)
    # at its second level, and the empty set needs no level at all
    for argv, code, said in [
        (["member", "finset{<0,1>}", "in", "P(100000000)"], 2, "<0,1>"),
        (["member", "empty", "in", "P(100000000)"], 0, "member of P(100000000)"),
    ]:
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = cli.main(argv)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert got == code and said in out + err, (argv, got, out, err)
        assert seconds < 2 and peak < 50 << 20, (argv, seconds, peak)


def test_containment_in_a_huge_standard_copy_stops_at_its_first_level(capsys):
    # the counterexample <0> lies in the first level of Q(10^8); the walk
    # must not fold the emptiness of the levels below to find it
    argv = ["member", "--perp", "fan([eps];const(empty))", "in", "Q(100000000)"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = cli.main(argv)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert got == 2 and "<0>" in out + err, (got, out, err)
    assert seconds < 2 and peak < 50 << 20, (seconds, peak)
