"""Compiling canonical ideals into sets of finite sequences.

Each canonical form gets a standard copy inside the space of finite
integer sequences: fans hang blocks under an antichain of children,
spines hang them along the all-zero branch.  Restricting the ideal of
well-founded sets to the compiled copy recovers the canonical form, and
the structural classifier re-derives it from the schema alone.
"""

from idealforms import (
    Budget,
    classify,
    compile_ideal,
    enumerate_schema,
    normalize,
    parse_expr,
)
from idealforms.text import format_seq_elem


for src in ("FIN", "POW", "P(1)", "Q(1)", "P(2)", "sum(P(0),Q(0))", "P(w)", "Q(w)"):
    expr = parse_expr(src)
    schema = compile_ideal(expr)
    print(f"{src:14} compiles to  {schema}")

print("\nA few elements of each copy (depth 4, width 3):")
budget = Budget(4, 3, 8)
for src in ("FIN", "P(1)", "Q(1)", "P(w)"):
    elems = enumerate_schema(compile_ideal(parse_expr(src)), budget)
    listing = ", ".join(format_seq_elem(u) for u in elems)
    print(f"  {src:6} {listing}")

print("\nRound trip through the classifier:")
for src in ("FIN", "P(1)", "Q(w)", "sum(P(w),Q(w))", "P(w*2+1)"):
    expr = parse_expr(src)
    verdict = classify(compile_ideal(expr))
    print(f"  classify(compile({src!s:14})) = {verdict}   (normalize: {normalize(expr)})")
