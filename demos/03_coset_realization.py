"""Realizing orbits as coset quandles of the transvection group.

For a basepoint q, conjugation by s_q is an automorphism phi of G = Tr(Q),
the stabilizer H = {g : g(q) = q} sits inside the fixed subgroup of phi,
and gH -> g(q) identifies (G/H, twisted by phi) with the orbit of q.
Between two orbits, psi(g) = s_q g s_r^-1 gives a compatible action of one
coset space on the other.  G is held as its stabilizer chain, so no group
table is built and a G past the table limit is realized too.
"""

from quandles import (FiniteGroup, conjugation, coset_realization, dihedral,
                      inter_orbit_action, orbits, sbar_hom,
                      unipotent_class_quandle)

# -- a connected example: R_5 ---------------------------------------------------

real = coset_realization(dihedral(5), 0)
print("R_5 at basepoint 0:")
print("  transvection group order:", real.group.order)
print("  stabilizer size:", real.stabilizer_size)
print("  pi (coset -> element):", real.pi)
print("  all checks pass:", real.ok)

# -- the unipotent class --------------------------------------------------------

u5 = unipotent_class_quandle(5)
real = coset_realization(u5, 0)
print(f"\nunipotent class at p=5 ({u5.size} elements):")
print("  Tr(Q) order:", real.group.order)
print("  stabilizer inside fixed subgroup of phi:",
      real.checks["stabilizer_fixed_by_phi"])
print("  coset quandle isomorphic to the orbit:", real.ok)

u29 = unipotent_class_quandle(29)
real = coset_realization(u29, 0)
print(f"unipotent class at p=29 ({u29.size} elements): Tr(Q) order {real.group.order},",
      "all checks pass:", real.ok)

# -- realization works orbit by orbit on a disconnected quandle -------------------

q = conjugation(FiniteGroup.symmetric(3))
for base in orbits(q).basepoints:
    real = coset_realization(q, base)
    print(f"conj(S_3), orbit of {base}: |G|={real.group.order} "
          f"|H|={real.stabilizer_size} cosets={len(real.pi)} ok={real.ok}")

# -- the action of one orbit on another -------------------------------------------

print("\ninter-orbit actions on conj(S_3):")
bases = orbits(q).basepoints
for a in bases:
    for b in bases:
        rep = inter_orbit_action(q, a, b)
        assert rep.ok
print("  all", len(bases) ** 2, "basepoint pairs: well-defined and compatible")

# -- comparing symmetries through the basepoint ------------------------------------

rep = sbar_hom(dihedral(5), 0)
print("\nsbar on R_5: maps into a twisted quandle on Inn(R_5) "
      f"(order {rep.group.order});",
      "homomorphism:", rep.is_homomorphism, "injective:", rep.injective)

rep = sbar_hom(u5, 0)
print(f"sbar on the unipotent class: {len(rep.fibers)} fibers; injective:",
      rep.injective)
