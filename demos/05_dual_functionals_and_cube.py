"""Grid functionals, their associative gatherings, and the 2x2x2 cube.

Linear functionals placed on every site act on a grown lattice element;
gathering them as rows or as columns gives the same number because the
two growth orders agree.  The same marked-symbol construction extends to
a cube, where every axis order must produce one and the same sum.  The
cube report also covers 3x3x3 and 4x4x4 under all six axis orders; this
script prints its 2x2x2 instances.
"""

from hopf2d import dual_product, make_pivot
from hopf2d.coalgebra import cube_xyz_compat

pivot = make_pivot(theta=0.0)

print("== a grid of functionals on the 2 x 2 element ==")
pick_v = {"v": 1.0}
pick_b = {"b": 1.0}
counit = {"a": 1.0, "b": 1.0, "v": 0.0}
functionals = [[pick_v, pick_b],   # bottom row: select v then b
               [counit, counit]]   # top row: counit everywhere
cols = dual_product(functionals, pivot, "v", 2, 2, gathering="cols")
rows = dual_product(functionals, pivot, "v", 2, 2, gathering="rows")
print(f"column gathering: {cols.real:g}   row gathering: {rows.real:g}")

print("\nall-counit functionals annihilate the marked element:")
val = dual_product([[counit, counit], [counit, counit]], pivot, "v", 2, 2)
print(f"  value = {abs(val):g}")

print("\n== the 3 x 2 associativity identity ==")
functionals = [[counit, pick_v, pick_b], [pick_b, pick_b, pick_b]]
cols = dual_product(functionals, pivot, "v", 2, 3, gathering="cols")
rows = dual_product(functionals, pivot, "v", 2, 3, gathering="rows")
print(f"column gathering: {cols.real:g}   row gathering: {rows.real:g}")

print("\n== the cube ==")
report = cube_xyz_compat()
for inst in report.instances[:3]:
    extra = f", {inst.details['terms']} terms" if inst.details else ""
    print(f"symbol {inst.input}: residual {inst.residual:.1e}{extra}")
print("three growth orders agree; the marked sum is the 7-fold coproduct")
print("rearranged onto the cube (x fastest, then y, then z).")
