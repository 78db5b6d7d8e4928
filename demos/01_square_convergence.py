"""Sanity check on the square cavity.

The least-squares eigenvalues on (0, pi)^2 with unit coefficients converge
to m^2 + n^2, at second order, for both element pairings: lowest-order edge
elements with nodal P1 potentials, and the equal-order nodal pairing.
"""

import numpy as np

from lsmaxwell import FormulationSpec, StudyConfig, render_report, run_study

for elements, label in (("ned0", "edge elements"), ("p1", "nodal elements")):
    config = StudyConfig(
        domain="square",
        ns=(8, 16, 32),
        spec=FormulationSpec(kind="ls2d", elements_v=elements),
        nev=10,
    )
    report = run_study(config)
    print(f"\n=== Least-squares Maxwell on the square, {label} ===")
    print(render_report(report, "markdown"))
    worst = min(r for rates in report.rates for r in rates if r is not None)
    print(f"slowest observed rate: {worst:.2f} (expected ~2.0)\n")
