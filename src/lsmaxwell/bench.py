"""Configuration-driven convergence studies.

Each study domain is one row of :data:`DOMAINS`: its mesh, the settings
that mesh reads and its reference eigenvalues.  A study runs a formulation
across a mesh sequence of its domain, compares eigenvalues against the
domain's reference or against a second formulation on the same meshes,
computes rates under mesh refinement, and renders CSV/markdown reports.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import mesh as meshmod
from .formulations import FormulationSpec, build_pencil
# shift_invert_eigs stays bound here: the benchmark's tracer wraps it by name
from .pencil import (BlockPencil, PencilError, schur_eigs, shift_invert_eigs,
                     solve_symmetric)


class StudyError(ValueError):
    """Invalid study configuration."""


def _cavity(dim):
    """The Maxwell spectrum of the cavity [0, pi]^dim as a function of the
    count: |k|^2 over index tuples k >= 0 with at least dim - 1 positive
    entries, counted dim - 1 times (once per polarisation) when all are
    positive."""
    def spectrum(count):
        r = math.isqrt(4 * count) + 2
        vals = []
        for k in itertools.product(range(r + 1), repeat=dim):
            pos = sum(i > 0 for i in k)
            if pos >= dim - 1:
                vals += [sum(i * i for i in k)] * (dim - 1 if pos == dim else 1)
        return np.sort(np.array(vals, dtype=float))[:count]
    return spectrum


# domain -> (its mesh at n for a config; the config settings that mesh reads
# besides n; its reference spectrum, a function of the count or a tabulated
# tuple).  The L-shape and the cracked (slit) square have a fixed size and
# tabulated benchmark values.
DOMAINS = {
    "square": (lambda n, c: meshmod.build_structured_square(n, c.side, c.diagonal),
               ("side", "diagonal"), _cavity(2)),
    "lshape": (lambda n, c: meshmod.build_lshape(n, c.diagonal), ("diagonal",),
               (1.47562, 3.53403, 9.86960, 9.86960, 11.38948)),
    "slit": (lambda n, c: meshmod.build_slit(n, c.diagonal), ("diagonal",),
             (1.03407, 2.46740, 4.04693, 9.86960, 9.86960,
              10.84485, 12.26490, 12.33701, 19.73921, 21.24411)),
    "cube": (lambda n, c: meshmod.build_structured_cube(n, c.side), ("side",),
             _cavity(3)),
}
# a setting a domain's mesh does not read fails the config unless defaulted
_UNREAD = {"side": "the {0} domain has a fixed size; side = {1:g} does not apply",
           "diagonal": "the {0} mesh has one split; diagonal = {1!r} does not apply"}


def reference_spectrum(domain, count):
    """The ``count`` smallest reference eigenvalues of a domain, ascending
    and with multiplicity, from its :data:`DOMAINS` row."""
    if domain not in DOMAINS:
        raise StudyError(f"unknown domain {domain!r}")
    ref = DOMAINS[domain][2]
    if callable(ref):
        return ref(count)
    if count > len(ref):
        raise StudyError(f"only {len(ref)} reference values known for the "
                         f"{domain} domain")
    return np.array(ref[:count])


def compute_rates(errors, ns=None):
    """Convergence rates r_k = log(e_{k-1}/e_k) / log(n_k/n_{k-1}).

    The first entry is None (no previous mesh); a vanishing error on either
    side yields None for that entry.  For a halved mesh sequence this is
    the usual log2 of the error ratio, attached to the finer mesh.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        return [None] * len(errors)
    rates = [None]
    for k in range(1, len(errors)):
        e0, e1 = errors[k - 1], errors[k]
        if e0 <= 0 or e1 <= 0:
            rates.append(None)
            continue
        if e0 == e1:
            rates.append(0.0)
            continue
        factor = math.log(ns[k] / ns[k - 1]) if ns is not None else math.log(2.0)
        rates.append(math.log(e0 / e1) / factor)
    return rates


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a domain of :data:`DOMAINS`, a strictly
    increasing mesh parameter list and a formulation, compared against the
    domain's reference or, when ``spec_b`` is given, against that second
    formulation on the same meshes.  A setting the domain's mesh does not
    read must keep its default."""

    domain: str
    ns: tuple
    spec: FormulationSpec
    spec_b: FormulationSpec | None = None
    nev: int = 10
    diagonal: str = "right"
    side: float = math.pi
    perturb_amplitude: float = 0.0
    perturb_seed: int = 1
    material_box: tuple | None = None

    def __post_init__(self):
        ns = tuple(self.ns)
        if len(ns) == 0 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise StudyError("mesh parameter list must be strictly increasing")
        if self.nev < 1:
            raise StudyError("nev must be >= 1")
        if self.domain not in DOMAINS:
            raise StudyError(f"unknown domain {self.domain!r}")
        for name, why in _UNREAD.items():
            value = getattr(self, name)
            if name not in DOMAINS[self.domain][1] and value != _STUDY_DEFAULTS[name]:
                raise StudyError(why.format(self.domain, value))
        object.__setattr__(self, "ns", ns)


_STUDY_DEFAULTS = {f.name: f.default for f in fields(StudyConfig)}


@dataclass
class StudyReport:
    """Per-mesh eigenvalues, references, errors, rates and wall times."""

    config: StudyConfig
    ns: list
    eigenvalues: list          # one ascending array per mesh
    reference: np.ndarray | None
    eigenvalues_b: list | None
    errors: list               # one array per mesh
    rates: list                # rates[mode][mesh], None where undefined
    wall_times: list


def build_domain_mesh(config, n):
    """The mesh of ``config.domain`` at parameter n, from its
    :data:`DOMAINS` row, with its interior perturbed when
    ``config.perturb_amplitude`` > 0 and the cells in
    ``config.material_box`` tagged 1."""
    m = DOMAINS[config.domain][0](n, config)
    if config.perturb_amplitude > 0:
        m = meshmod.perturb_interior(m, config.perturb_amplitude, config.perturb_seed)
    if config.material_box is not None:
        m = meshmod.tag_subdomain(m, config.material_box, 1)
    return m


def solve_spectrum(mesh, spec, nev):
    """Solve one formulation on one mesh; returns the ``nev`` smallest
    physical eigenvalues, ascending, and their :class:`EigenSolution`.

    Block pencils go through the symmetric Schur reduction
    (:func:`schur_eigs`); the symmetric reference pencils through
    :func:`solve_symmetric`, which deflates their kernel basis, so no zero
    eigenvalue is returned.  Both end in the same residual gate: too few
    eigenpairs passing it raise :class:`PencilError`.
    """
    pencil = build_pencil(mesh, spec)
    sol = (schur_eigs if isinstance(pencil, BlockPencil) else solve_symmetric)(
        pencil, nev=nev)
    return sol.eigenvalues, sol


def run_study(config):
    """Run the configured study over its mesh sequence.  The domain's
    reference is looked up before the first solve."""
    nev = config.nev
    pairwise = config.spec_b is not None
    ref = None if pairwise else reference_spectrum(config.domain, nev)
    eigs, eigs_b, times = [], [], []
    for n in config.ns:
        t0 = time.perf_counter()
        m = build_domain_mesh(config, n)
        try:
            lam, _ = solve_spectrum(m, config.spec, nev)
            if pairwise:
                lam_b, _ = solve_spectrum(m, config.spec_b, nev)
                eigs_b.append(lam_b)
        except PencilError as e:
            raise PencilError(f"solver failed at n={n}: {e}") from e
        eigs.append(lam)
        times.append(time.perf_counter() - t0)
    if pairwise:
        errors = [np.abs(a - b) for a, b in zip(eigs, eigs_b)]
    else:
        errors = [np.abs(lam - ref) for lam in eigs]
        eigs_b = None
    rates = []
    for mode in range(nev):
        per_mode = [errors[k][mode] for k in range(len(config.ns))]
        rates.append(compute_rates(per_mode, ns=config.ns))
    return StudyReport(config, list(config.ns), eigs, ref, eigs_b,
                       errors, rates, times)


def render_report(report, fmt="csv"):
    """Render a study report as 'csv' (columns mode,n,lambda,ref,error,rate)
    or 'markdown' (one row per mode, one computed column per mesh)."""
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise StudyError(f"unknown report format {fmt!r}")


def _fmt_rate(r):
    return "" if r is None else f"{r:.17g}"


def _render_csv(report):
    lines = ["mode,n,lambda,ref,error,rate"]
    nev = report.config.nev
    for mode in range(nev):
        for k, n in enumerate(report.ns):
            lam = report.eigenvalues[k][mode]
            if report.reference is not None:
                ref = report.reference[mode]
            else:
                ref = report.eigenvalues_b[k][mode]
            err = report.errors[k][mode]
            rate = report.rates[mode][k]
            lines.append(f"{mode + 1},{n},{lam:.17g},{ref:.17g},"
                         f"{err:.17g},{_fmt_rate(rate)}")
    return "\n".join(lines) + "\n"


def _cell(lam, rate):
    return f"{lam:.5f}" if rate is None else f"{lam:.5f} ({rate:.2f})"


def _render_markdown(report):
    nev = report.config.nev
    pairwise = report.reference is None
    head = ["Exact"] if not pairwise else ["Rank"]
    head += [f"n={n}" for n in report.ns]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for mode in range(nev):
        first = (f"{report.reference[mode]:.5f}" if not pairwise else str(mode + 1))
        row = [first]
        for k in range(len(report.ns)):
            row.append(_cell(report.eigenvalues[k][mode], report.rates[mode][k]))
        lines.append("| " + " | ".join(row) + " |")
    if pairwise:
        lines.append("")
        lines.append("| Difference | " + " | ".join(f"n={n}" for n in report.ns) + " |")
        lines.append("|" + "---|" * (len(report.ns) + 1))
        for mode in range(nev):
            row = [str(mode + 1)]
            for k in range(len(report.ns)):
                row.append(_cell(report.errors[k][mode], report.rates[mode][k]))
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def parse_report_csv(text):
    """Parse the CSV produced by :func:`render_report` back into arrays."""
    rows = text.strip().splitlines()
    out = []
    for r in rows[1:]:
        mode, n, lam, ref, err, rate = r.split(",")
        out.append((int(mode), int(n), float(lam), float(ref), float(err),
                    None if rate == "" else float(rate)))
    return out
