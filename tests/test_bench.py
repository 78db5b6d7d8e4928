import itertools
import math

import numpy as np
import pytest

from lsmaxwell import bench
from lsmaxwell.bench import (DOMAINS, StudyConfig, StudyError, compute_rates,
                             parse_report_csv, reference_spectrum,
                             render_report, run_study)
from lsmaxwell.formulations import FormulationSpec

# printed benchmark rows (computed value sequences and the rates printed
# next to them) used to pin the rate convention
RATE_FIXTURES = [
    # (exact, values per mesh, printed rates)
    (1.0, [1.01090, 1.00273, 1.00068], [2.00, 2.00]),
    (2.0, [2.04063, 2.01017, 2.00254], [2.00, 2.00]),
    (5.0, [5.14696, 5.03683, 5.00922], [2.00, 2.00]),
    (1.47562, [1.60421, 1.52532, 1.49509], [1.37, 1.35]),
    (3.53403, [3.56787, 3.54233, 3.53609], [2.03, 2.01]),
    (2.0, [2.12293, 2.03055, 2.00762], [2.01, 2.00]),
    (3.0, [3.25478, 3.06315, 3.01576], [2.01, 2.00]),
]


class TestReferences:
    def test_square(self):
        got = reference_spectrum("square", 10)
        assert np.array_equal(got, [1, 1, 2, 4, 4, 5, 5, 8, 9, 9])

    def test_lshape(self):
        got = reference_spectrum("lshape", 5)
        assert np.allclose(got, [1.47562, 3.53403, 9.86960, 9.86960, 11.38948])

    def test_cube(self):
        got = reference_spectrum("cube", 10)
        assert np.array_equal(got, [2, 2, 2, 3, 3, 5, 5, 5, 5, 5])

    def test_slit(self):
        got = reference_spectrum("slit", 10)
        assert got[0] == 1.03407 and got[1] == 2.46740

    def test_large_count_square(self):
        got = reference_spectrum("square", 50)
        assert len(got) == 50
        assert (np.diff(got) >= 0).all()

    def test_unknown(self):
        with pytest.raises(StudyError):
            reference_spectrum("disk", 3)
        with pytest.raises(StudyError):
            reference_spectrum("lshape", 6)

    @pytest.mark.parametrize("domain,dim", [("square", 2), ("cube", 3)])
    def test_cavity_matches_index_loops(self, domain, dim):
        # |k|^2 with at least dim - 1 positive indices; in 3D the triples
        # with all three positive carry two polarisations
        for count in (1, 2, 7, 50, 200):
            r = math.isqrt(4 * count) + 2
            vals = []
            for k in itertools.product(range(r + 1), repeat=dim):
                pos = sum(i > 0 for i in k)
                if dim == 2 and pos > 0:
                    vals.append(sum(i * i for i in k))
                elif dim == 3 and pos >= 2:
                    vals += [sum(i * i for i in k)] * (2 if pos == 3 else 1)
            want = np.sort(np.array(vals, dtype=float))[:count]
            got = reference_spectrum(domain, count)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # the cavity of side s has (pi / s)^2 times the side-pi values
            for side in (2.0, 1.5, 1e-3):
                got = reference_spectrum(domain, count, side)
                assert np.array_equal(got, want * (math.pi / side) ** 2)


class TestRates:
    def test_printed_rate_convention(self):
        for exact, vals, printed in RATE_FIXTURES:
            errors = [abs(v - exact) for v in vals]
            rates = compute_rates(errors)
            for got, want in zip(rates[1:], printed):
                assert abs(got - want) <= 0.011

    def test_equal_errors(self):
        assert compute_rates([0.5, 0.5]) == [None, 0.0]

    def test_zero_error_undefined(self):
        rates = compute_rates([0.1, 0.0, 0.05])
        assert rates[1] is None and rates[2] is None

    def test_vanishing_equal_errors_undefined(self):
        # a config compared with itself has zero difference on every mesh
        assert compute_rates([0.0, 0.0]) == [None, None]

    def test_generalized_ratio(self):
        # non-halving sequence: rate = log(e0/e1)/log(n1/n0)
        rates = compute_rates([0.9, 0.1], ns=[10, 30])
        assert abs(rates[1] - math.log(9.0) / math.log(3.0)) < 1e-12

    def test_single_mesh(self):
        assert compute_rates([0.1]) == [None]


class TestStudyConfig:
    def test_validation(self):
        spec = FormulationSpec(kind="ls2d")
        with pytest.raises(StudyError):
            StudyConfig(domain="square", ns=(8, 8), spec=spec)
        with pytest.raises(StudyError):
            StudyConfig(domain="square", ns=(8,), spec=spec, nev=0)
        with pytest.raises(StudyError, match="unknown domain 'disk'"):
            StudyConfig(domain="disk", ns=(8,), spec=spec)
        # checked when the config is made: the reference divides by it
        with pytest.raises(StudyError, match="side must be positive"):
            StudyConfig(domain="square", ns=(8,), spec=spec, side=0.0)

    @pytest.mark.parametrize("domain,setting", [("lshape", {"side": 2.0}),
                                                ("slit", {"side": 2.0}),
                                                ("cube", {"diagonal": "left"})])
    def test_unread_setting_rejected(self, domain, setting):
        # the mesh of the domain has no use for the setting: the config
        # fails when it is made, not when its first mesh is built
        spec = FormulationSpec(kind="ls2d")
        with pytest.raises(StudyError, match="does not apply"):
            StudyConfig(domain=domain, ns=(2,), spec=spec, **setting)

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_read_settings_accepted(self, domain):
        reads = {"side": 2.0, "diagonal": "crisscross"}
        kw = {name: reads[name] for name in DOMAINS[domain][1]}
        cfg = StudyConfig(domain=domain, ns=(2,), spec=FormulationSpec(), **kw)
        assert bench.build_domain_mesh(cfg, 2).num_cells > 0


class TestRunStudy:
    def test_reference_mode(self):
        cfg = StudyConfig(domain="square", ns=(4, 8),
                          spec=FormulationSpec(kind="ls2d"), nev=3)
        rep = run_study(cfg)
        assert len(rep.eigenvalues) == 2
        for mode in range(3):
            assert rep.rates[mode][0] is None
            assert 1.5 < rep.rates[mode][1] < 2.5
        assert all(t >= 0 for t in rep.wall_times)

    def test_pairwise_mode(self):
        cfg = StudyConfig(domain="square", ns=(4, 8),
                          spec=FormulationSpec(kind="ls2d", elements_v="p1"),
                          spec_b=FormulationSpec(kind="galerkin_laplace"),
                          nev=3)
        rep = run_study(cfg)
        assert rep.reference is None
        for k in range(3):
            assert rep.errors[1][k] < rep.errors[0][k]

    @pytest.mark.parametrize("domain,nev", [("lshape", 6), ("slit", 11)])
    def test_reference_checked_before_solving(self, monkeypatch, domain, nev):
        calls = []
        monkeypatch.setattr(bench, "solve_spectrum",
                            lambda *args: calls.append(args))
        cfg = StudyConfig(domain=domain, ns=(2, 4), spec=FormulationSpec(),
                          nev=nev)
        with pytest.raises(StudyError, match="reference values known"):
            run_study(cfg)
        assert calls == []

    def test_pairing_stability(self):
        # multiplicity-2 pairs consumed in ascending order: permuting equal
        # computed values cannot change the errors
        ref = reference_spectrum("square", 4)
        lam = np.array([1.003, 1.001, 2.02, 4.1])
        errs = np.abs(np.sort(lam) - ref)
        lam2 = np.array([1.001, 1.003, 2.02, 4.1])
        errs2 = np.abs(np.sort(lam2) - ref)
        assert np.array_equal(errs, errs2)

    def test_determinism_bytes(self):
        cfg = StudyConfig(domain="square", ns=(4, 8),
                          spec=FormulationSpec(kind="ls2d"), nev=3)
        a = render_report(run_study(cfg), "csv")
        b = render_report(run_study(cfg), "csv")
        assert a == b


@pytest.fixture(scope="module")
def report():
    cfg = StudyConfig(domain="square", ns=(4, 8),
                      spec=FormulationSpec(kind="ls2d"), nev=3)
    return run_study(cfg)


class TestRender:
    def test_csv_columns_and_roundtrip(self, report):
        text = render_report(report, "csv")
        assert text.splitlines()[0] == "mode,n,lambda,ref,error,rate"
        rows = parse_report_csv(text)
        assert len(rows) == 3 * 2
        mode, n, lam, ref, err, rate = rows[0]
        assert (mode, n) == (1, 4)
        assert lam == report.eigenvalues[0][0]
        assert rate is None

    def test_markdown_headers(self, report):
        text = render_report(report, "markdown")
        assert "Exact" in text
        assert "(" in text and ")" in text  # computed (rate) cells

    def test_unknown_format(self, report):
        with pytest.raises(StudyError):
            render_report(report, "html")

    def test_empty_report_header_only(self, report):
        import dataclasses
        empty = dataclasses.replace(report, ns=[], eigenvalues=[], errors=[],
                                    rates=[[] for _ in range(3)],
                                    wall_times=[])
        text = render_report(empty, "csv")
        assert text == "mode,n,lambda,ref,error,rate\n"
