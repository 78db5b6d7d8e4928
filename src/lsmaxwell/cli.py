"""Command line front end.

Subcommands: ``mesh`` (export a benchmark mesh to the plain-text format),
``solve`` (one spectrum from a config file), ``study`` (a convergence
report), ``compare`` (pairwise difference study of two configs).  Exit
codes: 0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import mesh as meshmod
from .assembly import AssemblyError, CoefficientField
from .bench import (DOMAINS, StudyConfig, StudyError, build_domain_mesh,
                    render_report, run_study, solve_spectrum)
from .elements import ElementError
from .formulations import FormulationSpec
from .mesh import MeshError
from .pencil import PencilError, spectrum_csv

_VALIDATION = (StudyError, AssemblyError, MeshError, ElementError, ValueError)


# every key the commands read; any other key is a typo and fails the run
_CONFIG_KEYS = frozenset((
    "formulation", "elements_v", "elements_q", "gauge", "bc", "domain",
    "n_list", "n", "side", "nev", "diagonal", "perturb", "seed",
    "eps_outside", "eps_inside", "mu_outside", "mu_inside"))


def parse_config(path):
    """Flat key-value config: one 'key = value' (or 'key value') per line,
    '#' starts a comment.  A key outside ``_CONFIG_KEYS`` raises
    :class:`StudyError`."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = line.split("=", 1)
            else:
                key, _, val = line.partition(" ")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise StudyError(f"unknown config key {key!r} in {path}")
            out[key] = val.strip()
    return out


def _coeff_from(cfg):
    eps_out = float(cfg.get("eps_outside", 1.0))
    eps_in = float(cfg.get("eps_inside", eps_out))
    mu_out = float(cfg.get("mu_outside", 1.0))
    mu_in = float(cfg.get("mu_inside", mu_out))
    coeff = CoefficientField(eps={0: eps_out, 1: eps_in},
                             mu={0: mu_out, 1: mu_in})
    has_material = eps_in != eps_out or mu_in != mu_out
    return coeff, has_material


def spec_from_config(cfg):
    """The :class:`FormulationSpec` of the config's keys that it has; the
    spec's own defaults fill in the rest."""
    coeff, _ = _coeff_from(cfg)
    given = {"kind" if key == "formulation" else key: cfg[key] for key in
             ("formulation", "elements_v", "elements_q", "gauge", "bc") if key in cfg}
    return FormulationSpec(coeff=coeff, **given)


def study_config_from(cfg, cfg_b=None, nev=None):
    """The study of a parsed config, pairwise against the formulation of
    ``cfg_b`` if given.  A material in either config tags the quarter box;
    a config without one has equal values on both tags."""
    domain = cfg.get("domain", "square")
    if "n_list" in cfg:
        ns = tuple(int(t) for t in cfg["n_list"].replace(",", " ").split())
    elif "n" in cfg:
        ns = (int(cfg["n"]),)
    else:
        raise StudyError("config needs 'n' or 'n_list'")
    side = float(cfg.get("side", math.pi))
    spec = spec_from_config(cfg)
    spec_b = None if cfg_b is None else spec_from_config(cfg_b)
    box = None
    if any(_coeff_from(c)[1] for c in (cfg, cfg_b or {})):
        if domain != "square":
            raise StudyError("material subdomains are defined on the square only")
        box = ((0.0, 0.0), (side / 2, side / 2))
    return StudyConfig(
        domain=domain, ns=ns, spec=spec, spec_b=spec_b,
        nev=nev if nev is not None else int(cfg.get("nev", 10)),
        diagonal=cfg.get("diagonal", "right"), side=side,
        perturb_amplitude=float(cfg.get("perturb", 0.0)),
        perturb_seed=int(cfg.get("seed", 1)),
        material_box=box)


def cmd_mesh(args):
    config = StudyConfig(domain=args.domain, ns=(args.n,), spec=FormulationSpec(),
                         diagonal=args.diagonal, side=args.side,
                         perturb_amplitude=args.perturb, perturb_seed=args.seed)
    m = build_domain_mesh(config, args.n)
    with open(args.out, "w") as f:
        f.write(meshmod.write_mesh_text(m))
    return 0


def cmd_solve(args):
    cfg = parse_config(args.config)
    config = study_config_from(cfg, nev=args.nev)
    m = build_domain_mesh(config, config.ns[0])
    _, sol = solve_spectrum(m, config.spec, config.nev)
    with open(args.out, "w") as f:
        f.write(spectrum_csv(sol))
    return 0


def cmd_study(args):
    cfg = parse_config(args.config)
    config = study_config_from(cfg)
    report = run_study(config)
    fmt = "markdown" if args.out.endswith(".md") else "csv"
    with open(args.out, "w") as f:
        f.write(render_report(report, fmt))
    return 0


def cmd_compare(args):
    cfg_a = parse_config(args.config_a)
    cfg_b = parse_config(args.config_b)
    for key in ("domain", "n_list", "n", "perturb", "seed", "diagonal", "side"):
        if cfg_a.get(key) != cfg_b.get(key):
            raise StudyError(f"configs disagree on {key!r}")
    config = study_config_from(cfg_a, cfg_b)
    report = run_study(config)
    with open(args.out, "w") as f:
        f.write(render_report(report, "csv"))
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="lsmaxwell")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="export a benchmark mesh")
    pm.add_argument("domain", choices=tuple(DOMAINS))
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--side", type=float, default=math.pi)
    pm.add_argument("--diagonal", default="right",
                    choices=("right", "left", "crisscross"),
                    help="quad split of square, lshape and slit meshes")
    pm.add_argument("--perturb", type=float, default=0.0)
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_mesh)

    ps = sub.add_parser("solve", help="compute one spectrum")
    ps.add_argument("--config", required=True)
    ps.add_argument("--nev", type=int, default=None,
                    help="eigenpairs to compute (default: the config's nev, else 10)")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("study", help="run a convergence study")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_study)

    pc = sub.add_parser("compare", help="pairwise difference study")
    pc.add_argument("--config-a", required=True)
    pc.add_argument("--config-b", required=True)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PencilError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 3
    except _VALIDATION as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
