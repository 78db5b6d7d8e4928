"""Spans and counters for the traced run.

The program has no tracing of its own: this module wraps the public
functions of each lsmaxwell module from outside, at the place where they
are looked up (a function imported by name into another module is wrapped
in that module too), records a span per call and counts work at the same
boundaries.  Spans are kept in memory and written to one JSON file.
"""

from __future__ import annotations

import time
from collections import defaultdict

from lsmaxwell import assembly, bench, elements, formulations, pencil
from lsmaxwell import mesh as meshmod

FORMS = assembly.FORMS
DISCARD_REASONS = ("infinite", "complex", "p_zero", "degenerate", "residual",
                   "duplicate")

_MESH_BUILDERS = ("build_structured_square", "build_lshape", "build_slit",
                  "build_structured_cube")
_BUILDERS = ("ls_maxwell_2d", "ls_maxwell_3d_threefield",
             "ls_maxwell_3d_twofield_nodal", "galerkin_laplace", "curlcurl_edge")

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "mesh.build_s": [f"mesh.{f}" for f in _MESH_BUILDERS
                     + ("perturb_interior", "tag_subdomain")],
    "assembly.assemble_s": [f"assembly.assemble.{f}" for f in FORMS],
    **{f"assembly.assemble_s.{f}": [f"assembly.assemble.{f}"] for f in FORMS},
    "assembly.build_space_s": ["assembly.build_space"],
    "assembly.eliminate_s": ["assembly.eliminate_constraints"],
    "formulations.build_pencil_self_s": ["formulations.build_pencil"]
    + [f"formulations.{b}" for b in _BUILDERS],
    "formulations.validate_s": ["formulations.validate_pencil"],
    "pencil.factorize_s": ["pencil.factorize"],
    "pencil.arnoldi_s": ["pencil.shift_invert_eigs"],
    "pencil.dense_s": ["pencil.dense_eigs"],
    "pencil.symmetric_s": ["pencil.solve_symmetric"],
    "pencil.filter_s": ["pencil.filter_spectrum"],
    "bench.solve_spectrum_self_s": ["bench.solve_spectrum"],
    "bench.run_study_self_s": ["bench.run_study"],
}
# per-layer metric -> span names whose calls it counts
CALLS = {
    "assembly.assemble_calls": [f"assembly.assemble.{f}" for f in FORMS],
    "pencil.factorize_calls": ["pencil.factorize"],
}
COUNTERS = ("mesh.cells", "elements.quad_points", "formulations.dofs",
            "formulations.K_nnz", "pencil.regularized", "pencil.lu_nnz",
            "pencil.op_applies", "pencil.arnoldi_dim", "pencil.candidates",
            "pencil.kept") + tuple(f"pencil.discards.{r}" for r in DISCARD_REASONS)


class TraceError(RuntimeError):
    """The program no longer matches the wrappers of this module."""


class Tracer:
    """Records spans (name, start, end, parent, operation) and counters
    while an operation is current; outside operations the wrappers pass
    straight through."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    def _call(self, name, fn, args, kwargs, after):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(out, args, rec[3])
        return out

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            return self._call(span, fn, args, kwargs, after)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, value=1):
        if self.op is not None:
            self.counts[key] += value

    # ---- hooks run after a traced call returns -------------------------

    def _after_mesh(self, mesh, args, parent):
        if parent is None or not self.spans[parent][0].startswith("mesh."):
            self.count("mesh.cells", mesh.num_cells)

    def _after_pencil(self, pen, args, parent):
        self.count("formulations.dofs", pen.size)
        self.count("formulations.K_nnz", pen.K.nnz)

    def _after_factorize(self, handle, args, parent):
        lu = handle._lu
        self.count("pencil.lu_nnz", lu.L.nnz + lu.U.nnz)
        solve = handle.solve

        def counted(b):
            self.count("pencil.op_applies")
            return solve(b)
        handle.solve = counted

    def _after_eigs(self, sol, args, parent):
        self.count("pencil.regularized", bool(sol.meta.get("regularized")))
        self.count("pencil.arnoldi_dim", sol.meta.get("arnoldi_dim", 0))

    def _after_filter(self, sol, args, parent):
        self.count("pencil.candidates", len(args[1]))
        self.count("pencil.kept", len(sol.eigenvalues))
        for reason, _ in sol.discarded:
            self.count(f"pencil.discards.{reason}")

    def _quadrature(self, fn):
        def wrapper(*args, **kwargs):
            rule = fn(*args, **kwargs)
            self.count("elements.quad_points", len(rule.weights))
            return rule
        wrapper.__wrapped__ = fn
        return wrapper

    def patches(self):
        """(module, attribute, replacement) for every traced lookup."""
        out = []

        def add(modules, attr, name, after=None):
            fn = getattr(modules[0], attr)
            for m in modules[1:]:
                if getattr(m, attr) is not fn:
                    raise TraceError(f"{m.__name__}.{attr} is not "
                                     f"{modules[0].__name__}.{attr}; "
                                     "one wrapper would replace both")
            w = self.wrap(name, fn, after)
            out.extend((m, attr, w) for m in modules)

        for f in _MESH_BUILDERS:
            add([meshmod], f, f"mesh.{f}", self._after_mesh)
        for f in ("perturb_interior", "tag_subdomain"):
            add([meshmod], f, f"mesh.{f}")
        out.append((elements, "quadrature", self._quadrature(elements.quadrature)))
        add([formulations], "assemble", lambda a: f"assembly.assemble.{a[0]}")
        add([formulations, assembly], "build_space", "assembly.build_space")
        add([formulations], "eliminate_constraints", "assembly.eliminate_constraints")
        add([bench], "build_pencil", "formulations.build_pencil", self._after_pencil)
        for b in _BUILDERS:
            add([formulations], b, f"formulations.{b}")
        add([formulations], "validate_pencil", "formulations.validate_pencil")
        add([pencil], "factorize", "pencil.factorize", self._after_factorize)
        add([bench, pencil], "shift_invert_eigs", "pencil.shift_invert_eigs",
            self._after_eigs)
        add([pencil], "_dense_eigs", "pencil.dense_eigs")
        add([bench], "solve_symmetric", "pencil.solve_symmetric")
        add([pencil], "filter_spectrum", "pencil.filter_spectrum", self._after_filter)
        add([bench], "solve_spectrum", "bench.solve_spectrum")
        add([bench], "run_study", "bench.run_study")
        return out

    def install(self):
        """Apply the wrappers; returns a callable that restores the originals."""
        saved = []
        for module, attr, repl in self.patches():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, repl)

        def restore():
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)
        return restore

    def run_op(self, op_id, fn):
        """Run ``fn`` as operation ``op_id`` under a root span."""
        self.op = op_id
        try:
            return self._call("op", fn, (), {}, None)
        finally:
            self.op = None

    # ---- aggregation ---------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                self_t[s[3]] -= s[2] - s[1]
        return self_t

    def layer_totals(self):
        """Summed self times and call counts per span name."""
        secs, calls = defaultdict(float), defaultdict(int)
        for s, t in zip(self.spans, self.self_times()):
            secs[s[0]] += t
            calls[s[0]] += 1
        return secs, calls

    def metrics(self, rounds):
        """Per-layer metrics, per traced round, with their units."""
        secs, calls = self.layer_totals()
        out = {}
        for m, names in SELF_TIME.items():
            out[m] = {"value": sum(secs[n] for n in names) / rounds, "unit": "s"}
        for m, names in CALLS.items():
            out[m] = {"value": sum(calls[n] for n in names) / rounds, "unit": "count"}
        for m in COUNTERS:
            out[m] = {"value": self.counts[m] / rounds, "unit": "count"}
        return out

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4]} for s in self.spans]
