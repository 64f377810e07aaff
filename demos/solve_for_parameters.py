"""Chain-assignment walkthrough for n = 5.

Five squares are assigned products from a four-member two-squares
chain over parameter pairs (p, q, r).  With q fixed, the requirement
that the squares sum back to the common norm is a quadratic form in
each remaining pair.  Solving those forms exactly (a square-matching
pass on the discriminant, then rational quadratic roots) produces the
parameter substitutions, and the closed forms fall out.
"""

from exsquares import (ASSIGN_N5, derive_n5, discriminant, fermat_square,
                       pipeline_n5, pipeline_n8, residual, validate_system)
from exsquares.derive import n5_p_values, n5_r_values
from exsquares.polyfield import Poly, X

q = (1, 2)

# residual in the pair p, with the r slot left open at (1, 0)
form = residual(ASSIGN_N5, ((X, Poly([1])), q, (1, 0)), unknown=2)
print("square deficit as a form in r, with p symbolic:")
print(f"  A = {form.A}")
print(f"  B = {form.B}")
print(f"  C = {form.C}")

quartic = discriminant(form)
print("its discriminant is a quartic in p1/p2; a point (p1 : p2) where")
print("it turns square:", fermat_square(quartic))
print()

got = derive_n5(*q)
print(f"derived substitutions at q = {q}:")
print(f"  p = {got['p']},  matches closed form {n5_p_values(*q)}")
print(f"  r roots = {got['r']},  closed form {n5_r_values(*q)}")
print()

system = pipeline_n5(*q)
print("full pipeline output:")
for r, c in zip(system.roots, system.certificates):
    print(f"  {r:>8}  certificate {c}")
print(f"validator: {validate_system(system)}")
print()

print("n = 8 runs the same way from an eight-member chain:")
eight = pipeline_n8(2, 1)
print(f"  largest root has {len(str(max(eight.roots)))} digits")
print(f"  validator: {validate_system(eight)}")
