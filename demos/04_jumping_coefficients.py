"""Material discontinuities: piecewise-constant eps and mu.

The square carries a different material outside its bottom-left quarter.
The least-squares nodal discretization is compared rank by rank with the
standard curl-curl formulation on edge elements, on the same mesh: fitted
(interface along mesh lines) and unfitted (perturbed vertices, coefficients
assigned by cell barycenter).
"""

import math

from lsmaxwell import CoefficientField, FormulationSpec, StudyConfig, run_study

QUARTER = ((0.0, 0.0), (math.pi / 2, math.pi / 2))

cases = {
    "eps jump (100 : 1)": CoefficientField(eps={0: 100.0, 1: 1.0},
                                           mu={0: 1.0, 1: 1.0}),
    "mu jump (1/100 : 1)": CoefficientField(eps={0: 1.0, 1: 1.0},
                                            mu={0: 0.01, 1: 1.0}),
}

for label, coeff in cases.items():
    for perturb, kind in ((0.0, "fitted uniform"), (0.2, "unfitted perturbed")):
        config = StudyConfig(
            domain="square", ns=(16, 32),
            spec=FormulationSpec(kind="ls2d", elements_v="p1", coeff=coeff),
            spec_b=FormulationSpec(kind="curlcurl_edge", coeff=coeff),
            material_box=QUARTER,
            perturb_amplitude=perturb, perturb_seed=1, nev=6,
        )
        report = run_study(config)
        print(f"\n=== {label}, {kind} mesh ===")
        print("rank |    curl-curl |  least-squares |  difference n=16 -> n=32")
        for k in range(6):
            d0, d1 = report.errors[0][k], report.errors[1][k]
            print(f"  {k + 1}  | {report.eigenvalues_b[1][k]:12.5f} |"
                  f" {report.eigenvalues[1][k]:14.5f} | {d0:.5f} -> {d1:.5f}")
