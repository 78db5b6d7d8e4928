"""Anatomy of the degenerate eigenvalue pencil.

The discrete system is K z = lambda M z with K = [A, B^T; B, C] (plus one
bordered row fixing the weighted mean of the potential) and M nonzero only
in its (u-rows x p-columns) block, where D = -B^T.  Because M is singular
the pencil carries eigenvalues at infinity; with the mean row removed it
even carries a 0 = lambda * 0 direction.  Everything is small enough here
to cross-check the solver, schur_eigs, against the dense QZ oracle and the
dense Schur reduction.
"""

import numpy as np

from lsmaxwell import (FormulationSpec, build_structured_square, dense_qz,
                       ls_maxwell_2d, schur_eigs, schur_reduce)

mesh = build_structured_square(3)
pen = ls_maxwell_2d(mesh, FormulationSpec(kind="ls2d", elements_v="p1"))

print("block layout:", {k: (s.start, s.stop) for k, s in pen.ranges.items()})
B, D = pen.blocks["B"], pen.blocks["D"]
print("max |D + B^T|  =", np.abs((D + B.T).toarray()).max())
print("max |K - K^T|  =", np.abs((pen.K - pen.K.T).toarray()).max())

sol = schur_eigs(pen, nev=6)
qz = dense_qz(pen.K, pen.M)
sch, _ = schur_reduce(pen)
print("\nschur_eigs  :", np.round(sol.eigenvalues[:6], 6))
print("dense QZ    :", np.round(qz.finite[:6], 6),
      f"({qz.num_infinite} infinite modes)")
print("schur_reduce:", np.round(np.sort(sch)[:6], 6))

print("\nwithout the mean-value row the pencil becomes singular:")
nog = ls_maxwell_2d(mesh, FormulationSpec(kind="ls2d", elements_v="p1",
                                          gauge="none"))
qz2 = dense_qz(nog.K, nog.M)
print(f"deflated 0 = lambda*0 directions: {qz2.num_degenerate}")
print("finite spectrum unchanged:",
      np.abs(qz2.finite[:6] - qz.finite[:6]).max())
