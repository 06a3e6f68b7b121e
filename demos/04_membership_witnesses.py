"""Membership of finitely presented sets, with checkable certificates.

Inside the standard copy of an ideal, membership of a query reduces to
two structural predicates: containment in a well-founded tree, and
domination by a branch.  Negative membership in the ideal always yields
an infinite orthogonal subset; every domination claim comes with a
branch or an unbounded family that the oracle re-checks at any budget.
"""

from idealforms import (
    Budget,
    Transversal,
    check_witness,
    compile_ideal,
    frechet_witness,
    id_witness,
    member_of,
    member_perp,
    parse_expr,
    parse_query,
)
from idealforms.text import format_seq_elem
from idealforms.witnesses import DominatingBranch

P1 = parse_expr("P(1)")
copy = compile_ideal(P1)
print(f"standard copy of P(1): {copy}")

block0 = parse_query("fan([chain];const(empty))")
print("\nthe chain inside block 0:")
print("  member of P(1)?      ", member_of(block0, P1))
print("  member of orthogonal?", member_perp(block0, P1))

transversal = Transversal(copy)
print("one pick from every block (the transversal):")
print("  member of P(1)?      ", member_of(transversal, P1))
print("  member of orthogonal?", member_perp(transversal, P1))

print("\nA membership-negative query always contains an orthogonal infinite set:")
w = frechet_witness(copy, P1)  # a schema is a query as it stands
print(f"  witness for the whole copy: {w}")
print("  passes the mechanical check:", check_witness(w, copy, Budget(8, 8, 100)))

print("\nDomination witnesses:")
for src in ("chain", "spine([];const(chain))", "fan([];const(eps))", "full"):
    q = parse_query(src)
    witness = id_witness(q)
    if isinstance(witness, DominatingBranch):
        print(f"  {src:24} dominated by the branch {witness}")
    else:
        sample = ", ".join(format_seq_elem(u) for u in witness.elements(4))
        print(f"  {src:24} unbounded family {sample}, ...")
    print(f"  {'':24} checked: {check_witness(witness, q, Budget(8, 8, 200))}")
