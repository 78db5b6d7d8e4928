"""Three-dimensional runs on the cube (0, pi)^3.

Two discretizations of the first-order least-squares system, both solved
by the Schur-reduced Lanczos solver ``schur_eigs``:

* the three-field system (edge elements for both vector fields plus a nodal
  multiplier enforcing the weighted divergence gauge) -- every computed
  mode passes the residual check on the full pencil with the multiplier
  component set to zero;
* the ungauged two-field nodal system, outside the covered theory, whose
  pencil is exactly singular.
"""

import numpy as np

from lsmaxwell import (FormulationSpec, build_pencil, build_structured_cube,
                       schur_eigs)

exact = np.array([2, 2, 2, 3, 3], dtype=float)

print("=== three-field system, edge elements ===")
for n in (2, 4):
    mesh = build_structured_cube(n)
    pen = build_pencil(mesh, FormulationSpec(kind="ls3d_threefield",
                                             elements_q="ned0"))
    sol = schur_eigs(pen, nev=5)
    w = np.linalg.norm(sol.vectors["w"])
    print(f"  n={n}: lambda = {np.round(sol.eigenvalues[:5], 5)}"
          f"  multiplier norm = {w:.1e}"
          f"  max residual = {sol.residuals.max():.1e}")
print(f"  exact limits:    {exact}")

print("\n=== two-field nodal system (no gauge) ===")
for n in (2, 4):
    mesh = build_structured_cube(n)
    pen = build_pencil(mesh, FormulationSpec(
        kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
        gauge="none"))
    sol = schur_eigs(pen, nev=5)
    print(f"  n={n}: lambda = {np.round(sol.eigenvalues[:5], 5)}"
          f"  max residual = {sol.residuals.max():.1e}")
print("  the curl-free nodal directions satisfy K z = 0 = M z; they lie in")
print("  the kernel of the curl block C, which R = B^T C^+ B never sees.")
