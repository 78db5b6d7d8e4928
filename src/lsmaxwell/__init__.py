"""Least-squares finite element solver for the Maxwell eigenvalue problem.

Assembles the first-order least-squares reformulation on 2D and 3D
simplicial meshes (edge or nodal elements), solves the resulting
degenerate generalized eigenvalue pencil through its symmetric Schur
reduction (Lanczos, or dense for small blocks), and runs convergence studies
against analytic and benchmark spectra.
"""

from .assembly import (CoefficientField, FESpace, assemble, build_space,
                       discrete_gradient, eliminate_constraints)
from .bench import (StudyConfig, StudyReport, compute_rates, reference_spectrum,
                    render_report, run_study, solve_spectrum)
from .elements import QuadratureRule, eval_lagrange, eval_nedelec, quadrature
from .formulations import (FormulationSpec, build_pencil, curlcurl_edge,
                           galerkin_laplace, ls_maxwell_2d,
                           ls_maxwell_3d_threefield,
                           ls_maxwell_3d_twofield_nodal)
from .mesh import (EXTERIOR, SLIT_BOTTOM, SLIT_TOP, Mesh, build_lshape,
                   build_slit, build_structured_cube, build_structured_square,
                   perturb_interior, read_mesh_text, tag_subdomain,
                   write_mesh_text)
from .pencil import (BlockPencil, EigenSolution, SymmetricPencil, dense_qz,
                     factorize, filter_spectrum, schur_eigs, schur_reduce,
                     shift_invert_eigs, solve_symmetric)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "FESpace", "assemble", "build_space",
    "discrete_gradient", "eliminate_constraints",
    "StudyConfig", "StudyReport", "compute_rates", "reference_spectrum",
    "render_report", "run_study", "solve_spectrum",
    "QuadratureRule", "eval_lagrange", "eval_nedelec", "quadrature",
    "FormulationSpec", "build_pencil", "curlcurl_edge", "galerkin_laplace",
    "ls_maxwell_2d", "ls_maxwell_3d_threefield", "ls_maxwell_3d_twofield_nodal",
    "EXTERIOR", "SLIT_BOTTOM", "SLIT_TOP", "Mesh", "build_lshape", "build_slit",
    "build_structured_cube", "build_structured_square", "perturb_interior",
    "read_mesh_text", "tag_subdomain", "write_mesh_text",
    "BlockPencil", "EigenSolution", "SymmetricPencil", "dense_qz", "factorize",
    "filter_spectrum", "schur_eigs", "schur_reduce", "shift_invert_eigs",
    "solve_symmetric",
]
