"""The derivative on generated trees and the Borel/non-Borel split.

Deriving a tree removes every node whose cone is dominated by a single
branch; iterating reaches a fixpoint.  An empty fixpoint pins the
restriction inside the classified family; a surviving core yields an
embedding of the whole sequence tree, which is the non-Borel witness.
The finite block quotient replays the same iteration concretely and
must land on the same rank.
"""

from idealforms import (
    Budget,
    check_witness,
    classify,
    classify_via_derivative,
    explicit_derivative,
    parse_tree,
    tree_rank,
)
from idealforms.text import format_seq_elem

CASES = [
    "chain",
    "fan([];const(eps))",
    "fan([];const(chain))",
    "spine([];const(fan([];const(eps))))",
    "fan([];qdiag(w))",
    "spine([];pdiag(w*2))",
    "full",
    "fan([chain,full];const(empty))",
]

print(f"{'schema':40} {'rank':>8}  core    quotient oracle")
for src in CASES:
    t = parse_tree(src)
    r, core_empty = tree_rank(t)
    try:
        oracle_r, oracle_core = explicit_derivative(t, Budget(6, 6, 64))
        oracle_txt = f"{oracle_r}, {'empty' if oracle_core else 'core'}"
    except Exception as exc:
        oracle_txt = type(exc).__name__  # diagonal tails overflow by design
    print(f"{src:40} {str(r):>8}  {'empty' if core_empty else 'core '}   {oracle_txt}")

print("\nTrichotomy on the same cases: core empty iff the restriction is classified:")
for src in CASES:
    t = parse_tree(src)
    _, core_empty = tree_rank(t)
    print(f"  {src:40} {'Borel' if core_empty else 'NON-Borel':10} {classify(t)}")

print("\nA non-Borel schema ships a core embedding; its images stay comparable")
print("exactly when the inputs are:")
t = parse_tree("fan([chain];const(full))")
out = classify_via_derivative(t)
w = out.witness
for u in [(), (0,), (0, 1), (1,), (2, 0)]:
    print(f"  {format_seq_elem(u):9} ->  {format_seq_elem(w.map(u))}")
print("  checked at budget (8,8,200):", check_witness(w, None, Budget(8, 8, 200)))
