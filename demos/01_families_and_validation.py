"""Build the standard quandle families and see what validation reports.

Every constructor returns a table on {0..n-1} that has already passed the
three axiom checks (idempotence, left-invertibility, left-distributivity),
plus labels and a replayable construction record.
"""

from quandles import (FiniteGroup, InvalidQuandleError, alexander, conj_class,
                      dihedral, matrix_group_sl2, power_cocycle, trivial,
                      unipotent_class_quandle, validate)

# -- the dihedral quandle R_5: i |> j = 2i - j mod 5 ---------------------------

r5 = dihedral(5)
print("R_5 operation table:")
for row in r5.op:
    print("  ", row.tolist())

# Its JSON form is the interchange format used by the CLI.
print("\nas JSON:", r5.to_json()[:60], "...")

# -- Alexander quandles: v |> w = v + a(w - v) over F_p ------------------------

for a in range(1, 5):
    q = alexander(5, 1, a)
    print(f"alexander(5, 1, {a}) built; a=1 gives the trivial quandle:",
          q == trivial(5))

# -- conjugacy classes as quandles ---------------------------------------------

s4 = FiniteGroup.symmetric(4)
transposition = s4.elements.index((1, 0, 2, 3))
cls = conj_class(s4, transposition)
print(f"\ntransposition class of S_4: {cls.size} elements,",
      "labels:", cls.labels[:3], "...")

# The unipotent class in SL_2(F_5): conjugates of [[1,1],[0,1]].
u5 = unipotent_class_quandle(5)
print(f"unipotent class at p=5: {u5.size} matrices, e.g. {u5.labels[0]}")
print("matrix group behind it has order", matrix_group_sl2(5).order)

# -- the polynomial family with tiny orbits -------------------------------------

s52 = power_cocycle(5, 2)
print(f"\npower_cocycle(5,2): {s52.size} points;",
      "every symmetry fixes the first coordinate")

# -- what a broken table looks like ----------------------------------------------

broken = [[1, 1], [0, 0]]
try:
    validate(broken)
except InvalidQuandleError as exc:
    print("\nvalidation rejects a hand-made table:")
    for violation in exc.violations:
        print("  ", violation)

# -- records replay to the identical table ---------------------------------------

again = u5.record.replay()
print("\nreplaying the construction record is byte-identical:",
      again.to_json() == u5.to_json())
