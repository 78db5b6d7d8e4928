"""Nodal elements on domains with singular eigenfunctions.

The L-shaped domain has a re-entrant corner (first eigenfunction ~ r^{2/3}),
the slit square an open crack (~ r^{1/2}).  Nodal least-squares still
converges, at the reduced rate the singularity dictates for the first mode
and at second order for the smooth ones -- provided the mesh is symmetric
around the singular point.  The crisscross split delivers that; a
one-diagonal split halves the singular-mode rate.
"""

import numpy as np

from lsmaxwell import FormulationSpec, StudyConfig, run_study

spec = FormulationSpec(kind="ls2d", elements_v="p1")

for domain, nev, note in (("lshape", 5, "corner mode: rate ~ 4/3"),
                          ("slit", 4, "crack mode: rate ~ 1")):
    print(f"\n=== {domain}, crisscross mesh ({note}) ===")
    config = StudyConfig(domain=domain, ns=(8, 16, 32), spec=spec,
                         nev=nev, diagonal="crisscross")
    report = run_study(config)
    for mode in range(nev):
        lams = " ".join(f"{report.eigenvalues[k][mode]:8.5f}" for k in range(3))
        rates = " ".join(f"{r:.2f}" if r else " -- " for r in report.rates[mode])
        print(f"  mode {mode + 1}: ref {report.reference[mode]:8.5f} | "
              f"computed {lams} | rates {rates}")

print("\n=== slit, single-diagonal mesh: the singular mode degrades ===")
config = StudyConfig(domain="slit", ns=(8, 16, 32), spec=spec,
                     nev=1, diagonal="right")
report = run_study(config)
print("  mode 1 rates:", [f"{r:.2f}" for r in report.rates[0][1:]],
      "(vs ~1.0 on the crisscross mesh)")
