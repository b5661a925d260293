"""Growing symbols into 2D lattice elements.

A marked symbol v spreads over an n x m grid with "a" on the sites that
come before it in the reading order and "b" on the sites after it.  The
growth happens one row or column at a time through the splitter maps, and
the result does not depend on the order of the growth steps.
"""

import math

from hopf2d import (
    apply_splitter,
    boxplus,
    check_counit,
    check_quasi_1d_assoc,
    check_xy_compat,
    grow,
    make_cross,
    make_pivot,
    make_taft,
    TaftConfig,
)
from hopf2d.grids import FormalSum, GridWord, word1, sums_equal
from hopf2d.instances import half_plane_grid
from hopf2d.grids import GridShape

pivot = make_pivot(theta=0.0)

print("== one splitter application ==")
col = GridWord.from_rows_top_down(pivot.alphabet, [["b"], ["v"], ["a"]])
print(f"splitting the column {col!r} horizontally:")
print("  ", apply_splitter(pivot, "x", col))

print("\n== growing the marked symbol ==")
for n, m in [(1, 2), (2, 2), (3, 3)]:
    s = boxplus(pivot, "v", n, m)
    print(f"boxplus {n}x{m}: {len(s)} terms")
print("the 2x2 element, printed top row first:")
for term, c in boxplus(pivot, "v", 2, 2).items():
    print("  ", term)

print("\n== axioms ==")
for direction in "xy":
    r = check_quasi_1d_assoc(pivot, direction, 2)
    print(f"quasi-1D associativity ({direction}): ok={r.ok} residual={r.max_residual:.1e}")
r = check_xy_compat(pivot, 3, 3)
print(f"xy-compatibility up to 3x3: ok={r.ok}")
r = check_counit(pivot, "x", 2)
print(f"counit contraction: ok={r.ok}")

print("\n== naive cellwise growth is a different object ==")
# splitting both cells of the 1 x 2 coproduct vertically is NOT the same
# as the grown 2 x 2 element; the construction deliberately does not
# require those to match.
v = pivot.alphabet["v"]
one_step = apply_splitter(pivot, "x", word1(v))
terms = []
for term, coeff in one_step.items():
    left = apply_splitter(pivot, "y", GridWord(GridShape(1, 1), (term.cells[0],)))
    right = apply_splitter(pivot, "y", GridWord(GridShape(1, 1), (term.cells[1],)))
    for lw, lc in left.items():
        for rw, rc in right.items():
            cells = (lw.cells[0], rw.cells[0], lw.cells[1], rw.cells[1])
            terms.append((GridWord(GridShape(2, 2), cells), coeff * lc * rc))
cellwise = FormalSum(GridShape(2, 2), terms)
print("cellwise double-split:", cellwise)
print("grown 2x2 element:    ", boxplus(pivot, "v", 2, 2))
print("equal?", sums_equal(cellwise, boxplus(pivot, "v", 2, 2)))

print("\n== the angle family ==")
grid = half_plane_grid(math.pi / 4, GridShape(4, 4), (3, 2))
print("disk-section assignment at angle pi/4 around site (3,2):")
for row in grid.rows_top_down():
    print("  ", " ".join(row))
tilted = make_pivot(theta=math.pi / 4)
print("tilted 2x2 element:", boxplus(tilted, "v", 2, 2))

print("\n== other instances ==")
cross = make_cross()
print("cross 3x3 sample term:", list(boxplus(cross, "v", 3, 3))[4])
taft = make_taft(TaftConfig(2, -1.0))
print("taft 2x2 element for x:", boxplus(taft, "x", 2, 2))
