"""Workload inputs, the timed operation and the untimed answer checks.

Each workload is a closed loop with one client: the worker issues one
operation ("op") at a time and checks its answer after the timed span
ends.  Inputs come only from the run seed and the scale (the share of
the nominal run size); the program under test sees nothing but them.

A workload object offers four things:

- ``inputs(seed, scale)``: the op list, built during set-up;
- ``run(inp)``: the timed op, returning the raw answer;
- ``check(inp, answer)``: None when the answer is right, else a message;
- ``describe(inp)``: a short label for reports.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import traceback
from pathlib import Path

import idealforms
from idealforms import classification, cli, ideals, oracle, rank, text, trees
from idealforms.errors import QuotientOverflow
from idealforms.ideals import CanonicalForm, Kind

PINNED = Path(__file__).resolve().parent / "pinned"

# law names of oracle.law_suite, in report order; a law added, dropped or
# renamed changes what one law_trials op means, so it counts as a failure
LAW_NAMES = (
    "ordinal-total-order", "ordinal-add-identities", "fundseq-monotone",
    "idempotence", "double-perp", "perp-sum-distribution", "combine-laws",
    "omega-regroup", "compile-round-trip", "two-path-agreement",
    "derivative-trichotomy", "domination-budget", "rank-oracle-agreement",
    "enumeration-monotone", "membership-never-both", "orthogonality-stabilizes",
    "frechet-witness-sound", "id-witness-checks", "wo-duality", "wo-sum-law",
    "rationalize-order-faithful", "dense-embedding",
)


def _form_str(kind: Kind, n: int) -> str:
    return str(CanonicalForm(kind, idealforms.ordinals.from_int(n)))


# --------------------------------------------------------------------------
# deep_forms: parse -> normalize -> compile_ideal -> classify -> tree_rank


class DeepForms:
    """Ascending ladder of deep finite ranks, nested expressions, towers.

    Rungs are ``62.5 k`` (k = 1..32) plus a seeded offset below 5, scaled
    by the square root of the run scale because the cost of a rung grows
    quadratically.  Inputs above n of about 5000 are left out: there the
    engine of this commit dies with RecursionError (see NOTES.md).
    """

    # (expression, canonical form, rank), pinned at this commit; cores are empty
    TOWERS = (
        ("P(w^(w^(w^w)))", "P(w^w^w^w)", "w^w^w^w+1"),
        ("Q(w^(w^w))", "Q(w^w^w)", "w^w^w+1"),
        ("sum(P(w^w),Q(w^(w+1)))", "Q(w^(w+1))", "w^(w+1)+1"),
        ("P(w^(w^(w^w))+1)", "P(w^w^w^w+1)", "w^w^w^w+2"),
        ("sum(P(w^(w*2)),Q(w^(w*2)))", "PQ(w^(w*2))", "w^(w*2)+1"),
        ("perp(limsum(w^(w^w)))", "Q(w^w^w)", "w^w^w+1"),
    )

    def inputs(self, seed: int, scale: float) -> list[tuple]:
        rng = random.Random(f"deep_forms:{seed}")
        stretch = math.sqrt(scale)
        out: list[tuple] = []
        for k in range(1, 33):
            n = round(62.5 * k * stretch) + rng.randrange(5)
            out.append(("P", n, f"P({n})"))
            out.append(("Q", n, f"Q({n})"))
            out.append(("PQ", n, f"sum(P({n}),Q({n}))"))
        for levels in (250, 500, 750, 1000):
            levels = max(2, round(levels * stretch)) + rng.randrange(4)
            out.append(("nest", levels, self._nested(rng, levels)))
        for src, form, r in self.TOWERS:
            out.append(("tower", (form, r), src))
        return out

    @staticmethod
    def _nested(rng: random.Random, levels: int) -> str:
        expr = rng.choice(["FIN", "POW", "P(1)", "Q(2)"])
        for _ in range(levels):
            expr = f"{rng.choice(['perp', 'omega'])}({expr})"
        return expr

    def run(self, inp):
        e = text.parse_expr(inp[2])
        form = ideals.normalize(e)
        schema = trees.compile_ideal(e)
        verdict = classification.classify(schema)
        return form, verdict, rank.tree_rank(schema)

    def check(self, inp, answer):
        kind, arg, src = inp
        form, verdict, (r, core_empty) = answer
        want_form, want_rank = self._expected(kind, arg, src)
        if str(form) != want_form:
            return f"{src}: form {form} != {want_form}"
        # compiler and structural classifier are mutually inverse
        if verdict != classification.Borel(form):
            return f"{src}: classify(compile) = {verdict}"
        if str(r) != want_rank or core_empty is not True:
            return f"{src}: rank {r},{core_empty} != {want_rank},True"
        return None

    @staticmethod
    def _expected(kind, arg, src) -> tuple[str, str]:
        # finite-rank answers follow closed forms checked at this commit for
        # every n up to 2100: rank P(n) = n//2 + 2, rank Q(n) = (n+1)//2 + 1
        if kind == "tower":
            return arg
        if kind == "nest":
            kind, arg = _fold_nested(src)
        p_rank, q_rank = arg // 2 + 2, (arg + 1) // 2 + 1
        want_rank = {"P": p_rank, "Q": q_rank, "PQ": max(p_rank, q_rank)}[kind]
        return _form_str(Kind[kind], arg), str(want_rank)

    def describe(self, inp) -> str:
        return inp[2] if len(inp[2]) < 40 else f"{inp[0]}[{inp[1]}]"


def _fold_nested(src: str) -> tuple[str, int]:
    """Canonical (kind, rank) of a perp/omega nest over a finite atom.

    An independent reading of the absorption rules: perp swaps P and Q,
    an omega-sum keeps P and sends Q(a) to P(a+1).
    """
    ops = []
    while "(" in src and src.split("(", 1)[0] in ("perp", "omega"):
        head, src = src.split("(", 1)
        ops.append(head)
        src = src[:-1]
    kind, n = {"FIN": ("Q", 0), "POW": ("P", 0), "P(1)": ("P", 1), "Q(2)": ("Q", 2)}[src]
    for op in reversed(ops):
        if op == "perp":
            kind = "Q" if kind == "P" else "P"
        elif kind == "Q":
            kind, n = "P", n + 1
    return kind, n


# --------------------------------------------------------------------------
# schema_corpus: oracle derivative, symbolic rank and both classifiers


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)] if total >= 1 else []
    return [
        (first,) + rest
        for first in range(1, total - parts + 2)
        for rest in _compositions(total - first, parts - 1)
    ]


def constant_tail_schemas(max_size: int) -> list[trees.TreeSchema]:
    """Every constant-tail schema of at most ``max_size`` constructor nodes,
    in a fixed order (by size, then constructor, head count and split)."""
    by_size: dict[int, list[trees.TreeSchema]] = {
        1: [trees.EMPTY, trees.EPS, trees.CHAIN, trees.FULL]
    }
    for size in range(2, max_size + 1):
        out = []
        for ctor in (trees.Fan, trees.Spine):
            for n_heads in range(3):
                for *head_sizes, tail_size in _compositions(size - 1, n_heads + 1):
                    for heads in itertools.product(*(by_size[s] for s in head_sizes)):
                        for block in by_size[tail_size]:
                            out.append(ctor(tuple(heads), trees.Const(block)))
        by_size[size] = out
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def schema_op(t: trees.TreeSchema):
    """The schema_corpus op: oracle derivative, symbolic rank and, for an
    infinite schema, both classifiers and the scaffold class."""
    try:
        derived = oracle.explicit_derivative(t, SchemaCorpus.BUDGET)
    except QuotientOverflow:
        derived = None
    ranked = rank.tree_rank(t)
    verdicts = None
    if not trees.is_finite(t):
        verdicts = (
            classification.classify(t),
            classification.classify_via_derivative(t),
            classification.scaffold_class(t),
        )
    return derived, ranked, verdicts


def schema_answer(answer) -> str:
    """One-line rendering of a schema_corpus answer, as pinned."""
    derived, (r, core), verdicts = answer
    parts = ["overflow" if derived is None else f"{derived[0]},{derived[1]}", f"{r},{core}"]
    if verdicts is not None:
        parts.extend(_verdict_str(v) for v in verdicts[:2])
        parts.append(str(verdicts[2]))
    return "|".join(parts)


def _verdict_str(v) -> str:
    if isinstance(v, classification.Borel):
        return f"B:{v.form}"
    return f"N:{v.witness.label}"


class SchemaCorpus:
    """Seeded draw from the 20 828 constant-tail schemas of size <= 6."""

    NOMINAL = 8000
    BUDGET = oracle.Budget(6, 6, 64)

    def __init__(self) -> None:
        self.corpus = constant_tail_schemas(6)
        pinned = json.loads((PINNED / "schema_corpus.json").read_text())
        vocab, codes = pinned["vocab"], pinned["codes"]
        self.expected = [vocab[int(codes[i : i + 2], 36)] for i in range(0, len(codes), 2)]
        if len(self.expected) != len(self.corpus):
            raise RuntimeError("pinned schema answers do not match the corpus size")

    def inputs(self, seed: int, scale: float) -> list[int]:
        rng = random.Random(f"schema_corpus:{seed}")
        k = min(len(self.corpus), max(50, round(self.NOMINAL * scale)))
        return rng.sample(range(len(self.corpus)), k)

    def run(self, i):
        return schema_op(self.corpus[i])

    def check(self, i, answer):
        t = self.corpus[i]
        derived, ranked, verdicts = answer
        if schema_answer(answer) != self.expected[i]:
            return f"{t}: {schema_answer(answer)} != pinned {self.expected[i]}"
        if derived is not None and derived != ranked:
            return f"{t}: oracle {derived} != rank {ranked}"
        if verdicts is None:
            return None
        left, right, scaffold = verdicts
        if isinstance(left, classification.Borel) != isinstance(right, classification.Borel):
            return f"{t}: two-path verdicts split"
        if ranked[1] != isinstance(left, classification.Borel):
            return f"{t}: core emptiness disagrees with the verdict"
        if isinstance(left, classification.Borel):
            want = left.form
            if isinstance(scaffold, CanonicalForm):
                want = ideals.combine(want, scaffold)
            if right.form != want:
                return f"{t}: via {right.form} != {left.form} + scaffold {scaffold}"
        return None

    def describe(self, i) -> str:
        return str(self.corpus[i])


# --------------------------------------------------------------------------
# law_trials: one pass of all 22 laws


class LawTrials:
    """Suite seeds 0..49 in a seeded order, one ``law_suite(s, 1)`` each.

    The set is fixed and only its order follows the run seed: single
    suites range from 0.01 s to 6 s, so a seeded draw of suite seeds
    would move wall_s by about a fifth between runs (see NOTES.md).
    """

    NOMINAL = 50

    def inputs(self, seed: int, scale: float) -> list[int]:
        suites = list(range(max(2, round(self.NOMINAL * scale))))
        random.Random(f"law_trials:{seed}").shuffle(suites)
        return suites

    def run(self, s):
        return oracle.law_suite(s, 1)

    def check(self, s, report):
        names = tuple(law.name for law in report.laws)
        if names != LAW_NAMES:
            return f"suite {s}: laws {names}"
        broken = [f"{law.name}: {law.first_counterexample}" for law in report.laws
                  if law.trials != 1 or law.failures != 0]
        if broken or not report.all_pass:
            return f"suite {s}: {broken}"
        return None

    def describe(self, s) -> str:
        return f"law_suite({s}, 1)"


# --------------------------------------------------------------------------
# cli_verbs: one fresh `python -m idealforms.cli` per op


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One verb in a fresh interpreter: (exit code, stdout, stderr).  The
    child inherits PYTHONPATH, which the runner points at the checkout."""
    proc = subprocess.run(
        [sys.executable, "-m", "idealforms.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inproc(argv: list[str]) -> tuple[int, str, str]:
    """The same verb through ``cli.main`` in this process.  An exception
    that escapes main would reach the user as a raw traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the user would see; judged as a violation
            code = 1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def contract_violation(code: int, stdout: str, stderr: str) -> str | None:
    """The documented error contract: exit 0 on success, 1 on a parse
    error, 2 on a precondition failure and 3 on an internal invariant
    failure, each error with a message and never a raw traceback."""
    if "Traceback" in stderr:
        return "raw traceback on stderr"
    if code not in (0, 1, 2, 3):
        return f"undocumented exit code {code}"
    if code != 0 and not stderr.strip():
        return "error exit without a message"
    return None


# ROADMAP item 5: at this commit these print a raw ValueError traceback and
# exit 1.  They are kept out of the timed mix (an op there must not fail)
# and run as the error-contract probe of the traced run instead.
KNOWN_DEFECTS = (
    ["enumerate", "chain", "--budget", "0,0,0"],
    ["member", "finset{<0,0>,<0,0>}", "in", "P(1)"],
    ["wo", "rationalize", "N", "--count", "-1"],
)


class CliVerbs:
    """Fixed mix of the 14 verbs other than selftest, plus error inputs.

    Each of the 15 categories gets the same number of slots; the seed
    picks each slot's input from the category pool and shuffles the mix.
    """

    NOMINAL = 90

    POOLS: dict[str, list[list[str]]] = {
        "normalize": [
            ["normalize", "omega(FIN)"],
            ["normalize", "sum(P(w+1),Q(w^2))"],
            ["normalize", "perp(omega(perp(omega(FIN))))"],
            ["--json", "normalize", "mix(P(2),Q(3);omega(Q(w)))"],
        ],
        "rank": [
            ["rank", "P(w*2+3)"],
            ["rank", "omega(omega(Q(5)))"],
            ["--json", "rank", "limsum(w^w)"],
        ],
        "perp": [
            ["perp", "P(w^2+1)"],
            ["perp", "sum(P(3),Q(3))"],
            ["--json", "perp", "omega(Q(w))"],
        ],
        "iso": [
            ["iso", "P(1)", "Q(1)"],
            ["iso", "sum(P(2),Q(1))", "P(2)"],
            ["--json", "iso", "perp(P(w))", "Q(w)"],
        ],
        "compile": [
            ["compile", "Q(2)"],
            ["compile", "P(1)", "--emit", "dot"],
            ["--json", "compile", "P(2)", "--emit", "json", "--count", "50"],
        ],
        "classify": [
            ["classify", "full"],
            ["classify", "chain", "--via", "derivative"],
            ["classify", "fan([];const(spine([chain];const(eps))))"],
            ["--json", "classify", "spine([full];const(chain))"],
            ["classify", "fan([];qdiag(w^2))"],
        ],
        "treerank": [
            ["treerank", "fan([];qdiag(w))"],
            ["treerank", "spine([chain,full];const(fan([];const(eps))))"],
            ["--json", "treerank", "spine([];pdiag(w*2))"],
        ],
        "member": [
            ["member", "fan([chain];const(empty))", "in", "P(1)"],
            ["member", "fan([chain];const(empty))", "in", "P(1)", "--perp"],
            ["--json", "member", "transversal(fan([];const(chain)))", "in", "P(1)"],
        ],
        "frechet": [
            ["frechet", "fan([];const(chain))", "in", "P(1)"],
            ["--json", "frechet", "fan([];const(spine([];const(fan([];const(eps))))))", "in", "P(2)"],
        ],
        "idwitness": [
            ["idwitness", "spine([];const(chain))"],
            ["idwitness", "fan([];const(chain))"],
            ["--json", "idwitness", "finset{<0,1>,<2>}"],
        ],
        "enumerate": [
            ["enumerate", "transversal(fan([];const(chain)))", "--budget", "6,6,200"],
            ["enumerate", "chain", "--budget", "4,4,20"],
            ["--json", "enumerate", "fan([];const(chain))", "--budget", "5,5,40"],
        ],
        "wo classify": [
            ["wo", "classify", "cat(N,rev(N))"],
            ["wo", "classify", "osum([N];rev(N))"],
            ["wo", "classify", "cat(QQ,N)"],
            ["--json", "wo", "classify", "rev(osum([];N))"],
        ],
        "wo reverse": [
            ["wo", "reverse", "osum([];rev(N))"],
            ["wo", "reverse", "cat(N,QQ)"],
        ],
        "wo rationalize": [
            ["wo", "rationalize", "rev(N)", "--count", "5"],
            ["wo", "rationalize", "cat(N,rev(N))", "--count", "8"],
            ["wo", "rationalize", "osum([];N)", "--count", "12"],
        ],
        "errors": [
            ["normalize", "P("],
            ["classify", "fan(["],
            ["wo", "classify", "cat(N"],
            ["rank", "sum(P(1)"],
            ["member", "fan([chain];const(empty))", "on", "P(1)"],
            ["treerank", "spine([];qdiag(3))"],
            ["member", "full", "in", "P(1)"],
            ["frechet", "fan([];const(spine([];const(eps))))", "in", "P(2)"],
            ["compile", "P(1)", "--emit", "png"],
        ],
    }

    def __init__(self, inproc: bool = False) -> None:
        self.inproc = inproc
        pinned = json.loads((PINNED / "cli.json").read_text())
        self.expected = {tuple(e["argv"]): (e["exit"], e["stdout"]) for e in pinned}

    def inputs(self, seed: int, scale: float) -> list[list[str]]:
        rng = random.Random(f"cli_verbs:{seed}")
        per_category = max(1, round(self.NOMINAL * scale / len(self.POOLS)))
        mix = [rng.choice(pool) for pool in self.POOLS.values() for _ in range(per_category)]
        rng.shuffle(mix)
        return mix

    def run(self, argv):
        return (run_cli_inproc if self.inproc else run_cli)(argv)

    def check(self, argv, answer):
        code, stdout, stderr = answer
        violation = contract_violation(code, stdout, stderr)
        if violation:
            return f"{' '.join(argv)}: {violation}"
        want = self.expected.get(tuple(argv))
        if want is None:
            return f"{' '.join(argv)}: no pinned answer"
        if (code, stdout) != want:
            return f"{' '.join(argv)}: exit {code} {stdout[:80]!r} != pinned exit {want[0]}"
        return None

    def describe(self, argv) -> str:
        return " ".join(argv)


WORKLOADS = {
    "deep_forms": DeepForms,
    "schema_corpus": SchemaCorpus,
    "law_trials": LawTrials,
    "cli_verbs": CliVerbs,
}
