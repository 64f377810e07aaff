"""Published coefficient tables and the independent validator.

The catalog ships the families as plain coefficient tuples.  Evaluate
one, cross-check the whole table against the generating machinery, and
watch the validator localize a planted fault.
"""

from exsquares import (SquareSystem, cross_check, eval_family, get_family,
                       list_families, validate_system)

print("built-in families:")
for fid in list_families():
    rec = get_family(fid)
    print(f"  {fid:<22} n = {rec.n}  kind = {rec.kind}")
print()

fid = "n6-method2-deg38"
rec = get_family(fid)
print(f"{fid} stores {len(rec.entries)} coefficient tuples; the first is")
print(" ", rec.entries[0])
print()

system = eval_family(fid, (1, 2))
print("evaluated at (1, 2) and reduced:")
for r in system.roots:
    print(f"  {r}")
print(f"validator: {validate_system(system)}")
print()

print("tables against the construction code, point by point:")
for fid in list_families():
    print(f"  {fid:<22} {cross_check(fid)}")
print()

# now break a digit and let the validator point at it
roots = list(system.roots)
roots[3] += 1
bad = SquareSystem(system.n, tuple(roots), system.certificates, system.s)
report = validate_system(bad)
print("after corrupting root 4:")
print(report)
