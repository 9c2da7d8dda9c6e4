"""Tour of the three one-edge maps: sphere loop, projective loop, plain edge.

Shows gon profiles, surface invariants, loop balance, and what the dual,
phial and antimap do to each.
"""

from mapcalc import (
    antimap,
    dual,
    euler_connectivity,
    gon_counts,
    loop_balance,
    map_operators,
    orientable,
    phial,
    projective_loop_map,
    single_edge_map,
    sphere_loop_map,
    vertex_word,
    write_gem,
)

trio = (
    ("sphere loop", sphere_loop_map()),
    ("projective loop", projective_loop_map()),
    ("plain edge", single_edge_map()),
)

print("== profiles ==")
for name, map_ in trio:
    v, f, z = gon_counts(map_)
    chi, xi = euler_connectivity(map_)
    print(
        f"{name:16} v={v} f={f} z={z}  chi={chi} xi={xi}  "
        f"orientable={orientable(map_)}  balance={loop_balance(map_, 0)}"
    )

print()
print("== the operator family permutes the three profiles ==")
s1 = sphere_loop_map()
for name, op in (("dual", dual), ("phial", phial), ("antimap", antimap)):
    print(f"{name:8} of sphere loop -> profile {gon_counts(op(s1))}")

print()
print("== the dual of the sphere loop IS the plain edge ==")
print(write_gem(dual(s1)), end="")
print("equal to single_edge_map:", dual(s1) == single_edge_map())

print()
print("== one-vertex maps read off as signed words ==")
for name, map_ in trio[:2]:
    w = vertex_word(map_)
    tokens = " ".join(f"{'-' if s < 0 else ''}{e + 1}" for e, s in w.entries)
    print(f"{name:16} vertex word: {tokens}")

print()
print("== zigzag operator of the sphere loop is the 1x1 identity ==")
ops = map_operators(s1)
print("c_P column 1:", ops.zigzag.column(0).edges(), "(0-based edge ids)")
print("c_P~ column 1:", ops.zigzag_complement.column(0).edges(), "(zero map)")
