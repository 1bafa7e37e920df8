"""Batch command-line front end.

Subcommands: quantize, converge, wick, wigner, heat, mc, verify.  Every
command reads a JSON config (--config) with flag overrides (--dim, --h,
--degree, --order, --seed, --out, --filter); flags win over the file.  All
randomness flows from the config seed.  Output files carry a metadata
header (package version, config hash, seed)
sufficient to reproduce them bit-identically.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
diagnostic failure, 4 resource cap.  Environment: GW_MAX_NODES bounds
quadrature grids, GW_MAX_SUBSETS bounds 2^|I| subset expansions.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import GweylError, InputError, NumericalError, ResourceError
from .gaussian import PhasePoint, exp_integral, gauss_quadrature, wick_moment
from .heat import CoordinateSplit, decomposition_check, heat_full, smooth_symbol
from .hermite import (
    FunctionRep, HermiteBasis, basis_element, coherent_state, complex_from_pairs,
    constant_rep,
)
from .mc import SIGMA_FAIL, lattice_norm_probability, mc_integral, sample_brownian
from .quantize import (
    IndexLadder,
    antiwick_matrix,
    hybrid_matrix,
    ladder_run,
    operator_norm,
    oracle_U,
    weyl_matrix,
    weyl_matrix_classical,
    wick_symbol,
)
from .symbols import (
    LatticeSymbolParams,
    SymbolDescriptor,
    make_constant,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    make_quadratic,
    quasi_ball,
)
from .wigner import wigner_grid


def _config_hash(cfg: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k not in ("out", "filter")}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _metadata(cfg: dict) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": cfg.get("seed", 0),
    }


def _reads_config(read):
    """Report a missing or mistyped config value as an InputError (exit 2)."""

    @functools.wraps(read)
    def checked(*args):
        try:
            return read(*args)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed config value ({type(exc).__name__}: "
                             f"{exc})") from exc

    return checked


@_reads_config
def load_symbol(spec: dict) -> SymbolDescriptor:
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("symbol spec must be an object with a 'family' key")
    fam = spec["family"]
    if fam == "exponential":
        return make_exponential(spec["a"], spec["b"])
    if fam == "constant":
        return make_constant(spec.get("value", 1.0), int(spec["dim"]))
    if fam == "fourier_measure":
        atoms = []
        for atom in spec["atoms"]:
            w = atom["weight"]
            if isinstance(w, (list, tuple)):
                w = complex(w[0], w[1])
            atoms.append((w, np.asarray(atom["a"], float),
                          np.asarray(atom["b"], float)))
        return make_fourier_measure(atoms)
    if fam == "quadratic":
        return make_quadratic(np.asarray(spec["T"], float), float(spec["t"]))
    if fam == "lattice":
        V = spec.get("V", "cos")
        if V != "cos":
            raise InputError("the CLI supports the cosine bond potential only")
        params = LatticeSymbolParams(
            d=int(spec.get("d", 1)),
            g=tuple(float(x) for x in spec["g"]),
            t=float(spec.get("t", 1.0)),
            V=V,
        )
        return make_lattice(params, int(spec.get("m", 2)))
    raise InputError(f"unknown symbol family {fam!r}")


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise InputError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config JSON: {exc}") from exc
    for key in ("dim", "degree", "order", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = int(val)
    if getattr(args, "h", None) is not None:
        cfg["h"] = float(args.h)
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if getattr(args, "filter", None) is not None:
        cfg["filter"] = args.filter
    return cfg


@_reads_config
def _basis_from(cfg: dict, dim: int) -> HermiteBasis:
    return HermiteBasis(dim, float(cfg.get("h", 0.5)), int(cfg.get("degree", 8)))


def _outdir(cfg: dict) -> str:
    out = cfg.get("out", "gweyl-out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def cmd_quantize(cfg: dict) -> int:
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    method = cfg.get("method", "weyl")
    order = cfg.get("order")
    if method == "weyl":
        op = weyl_matrix(sym, basis, order)
    elif method == "antiwick":
        op = antiwick_matrix(sym, basis, order)
    elif method == "hybrid":
        split = CoordinateSplit(basis.dim, tuple(cfg.get("split", ())))
        op = hybrid_matrix(sym, split, basis, order)
    elif method == "weyl_classical":
        op = weyl_matrix_classical(sym, basis,
                                   oversample=float(cfg.get("oversample", 3.5)))
    else:
        raise InputError(f"unknown method {method!r}")
    meta = _metadata(cfg)
    op.meta.update(meta)
    out = _outdir(cfg)
    with open(os.path.join(out, "operator.json"), "w") as fh:
        fh.write(op.to_json())
    summary = {
        "meta": meta,
        "method": method,
        "symbol": sym.name,
        "norm": operator_norm(op),
        "hermiticity_defect": op.hermiticity_defect(),
    }
    if sym.oracle is not None and sym.oracle.get("kind") == "U" and method == "weyl":
        U = oracle_U(sym.oracle["a"], sym.oracle["b"], basis.h, basis)
        summary["oracle_residual"] = operator_norm(
            op.entries - U.entries
        ) / max(operator_norm(U), 1e-300)
    _write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, indent=1, default=str))
    return 0


def _svg_plot(path: str, steps, metadata: dict):
    """Log-scale line plot of per-step differences against their bounds."""
    width, height, pad = 640, 420, 56
    xs = [s.n for s in steps if s.diff_norm is not None]
    series = {
        "diff_norm": [s.diff_norm for s in steps if s.diff_norm is not None],
        "diff_bound": [s.diff_bound for s in steps if s.diff_norm is not None],
    }
    vals = [v for vv in series.values() for v in vv if v is not None and v > 0]
    if not vals or not xs:
        lo, hi = 1e-3, 1.0
        xs = [1]
    else:
        lo, hi = min(vals), max(vals)
    llo, lhi = math.log10(lo) - 0.5, math.log10(hi) + 0.5
    x0, x1 = min(xs), max(xs)

    def px(n):
        return pad + (width - 2 * pad) * (0.5 if x1 == x0 else (n - x0) / (x1 - x0))

    def py(v):
        t = (math.log10(max(v, 1e-300)) - llo) / (lhi - llo)
        return height - pad - (height - 2 * pad) * t

    lines = []
    colors = {"diff_norm": "#1f77b4", "diff_bound": "#d62728"}
    for name, ys in series.items():
        pts = " ".join(f"{px(n):.1f},{py(v):.1f}" for n, v in zip(xs, ys))
        if pts:
            lines.append(
                f'<polyline fill="none" stroke="{colors[name]}" stroke-width="2" '
                f'points="{pts}"/>'
            )
            lines.append(
                f'<text x="{width - pad + 4}" y="{py(ys[-1]):.1f}" font-size="11" '
                f'fill="{colors[name]}">{name}</text>'
            )
    axis = (
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>'
        f'<text x="{width // 2}" y="{height - 12}" font-size="12">ladder step n</text>'
        f'<text x="8" y="{pad - 8}" font-size="12">log10 spectral norm</text>'
    )
    body = "\n".join(lines)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"<!-- {json.dumps(metadata, default=str)} -->\n{axis}\n{body}\n</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(svg)


@_reads_config
def _ladder_from(cfg: dict, dim: int) -> IndexLadder:
    subsets = cfg.get("ladder", [range(k + 1) for k in range(dim)])
    return IndexLadder(dim, tuple(tuple(s) for s in subsets))


def cmd_converge(cfg: dict) -> int:
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    ladder = _ladder_from(cfg, basis.dim)
    rep = ladder_run(sym, ladder, basis, cfg.get("order"))
    meta = _metadata(cfg)
    out = _outdir(cfg)
    rep.to_csv(os.path.join(out, "report.csv"), meta)
    _svg_plot(os.path.join(out, "report.svg"), rep.steps, meta)
    summary = {
        "meta": meta,
        "final_norm": rep.final_norm,
        "final_bound": rep.final_bound,
        "norm_error_bar": rep.norm_error_bar,
        "route_residual": rep.route_residual,
        "bound_ratios": rep.bound_ratios,
        "vacuous_bound": rep.vacuous_bound,
        "all_steps_within_bound": rep.ok,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, indent=1, default=str))
    return 0


def cmd_wick(cfg: dict) -> int:
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    h = basis.h
    n_pts = int(cfg.get("points", 20))
    radius = float(cfg.get("radius", math.sqrt(h)))
    pts = quasi_ball(n_pts, 2 * sym.dim, radius, int(cfg.get("seed", 0)))
    op = weyl_matrix(sym, basis, cfg.get("order"))
    rows = []
    worst = 0.0
    for p in pts:
        X = PhasePoint(p[: sym.dim], p[sym.dim:])
        left = wick_symbol(op, X)
        right = heat_full(sym, 0.5 * h, X)
        resid = abs(left - right)
        worst = max(worst, resid)
        rows.append((p, left, right, resid))
    out = _outdir(cfg)
    meta = _metadata(cfg)
    with open(os.path.join(out, "wick.csv"), "w") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write("x...,xi...,wick_re,wick_im,smoothed_re,smoothed_im,residual\n")
        for p, left, right, resid in rows:
            coords = ",".join(f"{float(v):.17g}" for v in p)
            fh.write(f"{coords},{left.real:.17g},{left.imag:.17g},"
                     f"{right.real:.17g},{right.imag:.17g},{resid:.17g}\n")
    print(json.dumps({"meta": meta, "worst_residual": worst}, indent=1))
    return 0


@_reads_config
def _load_rep(spec: dict, basis: HermiteBasis):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return constant_rep(basis, spec.get("value", 1.0))
    if kind == "basis":
        return basis_element(basis, spec["alpha"])
    if kind == "coherent":
        X = PhasePoint(np.asarray(spec["x"], float), np.asarray(spec["xi"], float))
        return coherent_state(X, basis.h, basis)
    if kind == "coeffs":
        return FunctionRep(basis, complex_from_pairs(spec["coeffs"]))
    raise InputError(f"unknown function kind {kind!r}")


def cmd_wigner(cfg: dict) -> int:
    dim = int(cfg.get("dim", 1))
    basis = _basis_from(cfg, dim)
    f = _load_rep(cfg.get("f", {"kind": "constant"}), basis)
    g = _load_rep(cfg.get("g", cfg.get("f", {"kind": "constant"})), basis)
    n = int(cfg.get("grid_points", 21))
    zmax = float(cfg.get("zmax", 2.0))
    zetamax = float(cfg.get("zetamax", 2.0))
    if dim != 1:
        raise InputError("the plotting grid is 1-dim")
    zs, zetas = np.meshgrid(
        np.linspace(-zmax, zmax, n), np.linspace(-zetamax, zetamax, n),
        indexing="ij",
    )
    grid = wigner_grid(f, g, zs.reshape(-1, 1), zetas.reshape(-1, 1))
    out = _outdir(cfg)
    meta = _metadata(cfg)
    grid.to_csv(os.path.join(out, "wigner.csv"), meta)
    defects = grid.bound_defects(f.norm, g.norm)
    print(json.dumps({"meta": meta, "max_bound_defect": float(defects.max())},
                     indent=1))
    return 0


def cmd_heat(cfg: dict) -> int:
    sym = load_symbol(cfg.get("symbol", {}))
    t = float(cfg.get("t", 0.25))
    n_pts = int(cfg.get("points", 10))
    pts = quasi_ball(n_pts, 2 * sym.dim, float(cfg.get("radius", 2.0)),
                     int(cfg.get("seed", 0)))
    coords = cfg.get("coords")
    G = smooth_symbol(sym, range(sym.dim) if coords is None else coords, t)
    vals = G(pts[:, : sym.dim], pts[:, sym.dim:])
    out = _outdir(cfg)
    meta = _metadata(cfg)
    with open(os.path.join(out, "heat.csv"), "w") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write("z...,zeta...,re,im\n")
        for p, v in zip(pts, vals):
            fh.write(",".join(f"{float(x):.17g}" for x in p)
                     + f",{v.real:.17g},{v.imag:.17g}\n")
    print(json.dumps({"meta": meta, "t": t, "n": n_pts}, indent=1))
    return 0


def cmd_mc(cfg: dict) -> int:
    kind = cfg.get("experiment", "brownian")
    seed = int(cfg.get("seed", 0))
    h = float(cfg.get("h", 0.5))
    out = _outdir(cfg)
    meta = _metadata(cfg)
    if kind == "brownian":
        K = int(cfg.get("K", 64))
        n = int(cfg.get("n", 10000))
        ens = sample_brownian(K, h, n, seed)
        ens.to_csv(os.path.join(out, "brownian.csv"), meta)
        var = float(np.var(ens.paths[:, -1]))
        z = abs(var - h) / (h * math.sqrt(2.0 / n))
        result = {"meta": meta, "endpoint_variance": var, "expected": h,
                  "z_score": z, "pass": z < SIGMA_FAIL}
    elif kind == "lattice_norm":
        rows = lattice_norm_probability(cfg["b"], float(cfg["eps"]), h,
                                        cfg["ladder"], int(cfg.get("n", 100000)),
                                        seed)
        with open(os.path.join(out, "lattice_norm.csv"), "w") as fh:
            for key, val in meta.items():
                fh.write(f"# {key}={val}\n")
            fh.write("sites,mc,stderr,exact\n")
            for p, mcv, se, exact in rows:
                fh.write(f"{p},{mcv:.17g},{se:.17g},{exact:.17g}\n")
        worst = max(abs(mcv - exact) / max(se, 1e-12) for _, mcv, se, exact in rows)
        result = {"meta": meta, "worst_z": worst, "pass": worst < SIGMA_FAIL}
    elif kind == "integral":
        a = np.asarray(cfg.get("a", [1.0]), float)
        n = int(cfg.get("n", 100000))
        est, se = mc_integral(lambda x: np.exp(x @ a), a.shape[0], h, n, seed)
        want = exp_integral(a, h).real
        z = abs(est - want) / max(se, 1e-12)
        result = {"meta": meta, "estimate": est, "stderr": se, "closed_form": want,
                  "z_score": z, "pass": z < SIGMA_FAIL}
    else:
        raise InputError(f"unknown mc experiment {kind!r}")
    _write_json(os.path.join(out, "mc.json"), result)
    print(json.dumps(result, indent=1, default=str))
    return 0


# ---------------------------------------------------------------------------
# verify: a compact invariant suite
# ---------------------------------------------------------------------------

def _verify_checks(seed: int):
    h = 0.5
    rng = np.random.default_rng(seed)

    def gaussian_closed_forms():
        rule = gauss_quadrature(1, h, 60)
        a = 1.3
        quad = rule.integrate(lambda x: np.exp(a * x[:, 0]))
        closed = exp_integral([a], h).real
        m4 = rule.integrate(lambda x: x[:, 0] ** 4)
        return max(abs(quad - closed), abs(m4 - 3.0 * h * h)), 1e-8

    def wick_vs_quadrature():
        rule = gauss_quadrature(2, h, 40)
        u = [np.array([1.0, 0.5]), np.array([0.3, -0.7]),
             np.array([0.2, 0.9]), np.array([-0.4, 0.1])]
        quad = rule.integrate(
            lambda x: (x @ u[0]) * (x @ u[1]) * (x @ u[2]) * (x @ u[3])
        )
        return abs(quad - wick_moment(u, h)), 1e-8

    def basis_orthonormality():
        basis = HermiteBasis(1, h, 12)
        rule = basis.default_rule()
        tab = basis.eval_table(rule.nodes)
        gram = (tab * rule.weights) @ tab.T
        return float(np.abs(gram - np.eye(basis.size)).max()), 1e-8

    def weyl_oracle_exponential():
        basis = HermiteBasis(1, h, 12)
        a, b = rng.uniform(-2, 2, size=2)
        M = weyl_matrix(make_exponential([a], [b]), basis)
        U = oracle_U([a], [b], h, basis)
        return operator_norm(M.entries - U.entries) / operator_norm(U), 1e-5

    def antiwick_contraction():
        basis = HermiteBasis(1, h, 10)
        atoms = [(rng.uniform(0.05, 0.5), rng.uniform(-2, 2, 1),
                  rng.uniform(-2, 2, 1)) for _ in range(4)]
        F = make_fourier_measure(atoms)
        return operator_norm(antiwick_matrix(F, basis)) - F.sup_norm, 1e-6

    def wick_symbol_identity():
        basis = HermiteBasis(1, h, 14)
        F = make_exponential([0.9], [-0.6])
        op = weyl_matrix(F, basis)
        X = PhasePoint([0.3], [-0.2])
        left = wick_symbol(op, X)
        right = heat_full(F, 0.5 * h, X)
        return abs(left - right), 1e-3

    def decomposition_identity():
        F = make_exponential([1.0, -0.5], [0.2, 0.8])
        Z = PhasePoint([0.3, -0.1], [0.5, 0.2])
        lhs, rhs = decomposition_check(F, [0, 1], h, Z)
        return abs(lhs - rhs), 1e-8

    def mc_exp_integral():
        a = np.array([0.8])
        est, se = mc_integral(lambda x: np.exp(x @ a), 1, h, 100000, seed)
        return abs(est - exp_integral(a, h).real) / max(se, 1e-12), SIGMA_FAIL

    return {
        "gaussian_closed_forms": gaussian_closed_forms,
        "wick_vs_quadrature": wick_vs_quadrature,
        "basis_orthonormality": basis_orthonormality,
        "weyl_oracle_exponential": weyl_oracle_exponential,
        "antiwick_contraction": antiwick_contraction,
        "wick_symbol_identity": wick_symbol_identity,
        "decomposition_identity": decomposition_identity,
        "mc_exp_integral": mc_exp_integral,
    }


def cmd_verify(cfg: dict) -> int:
    pattern = cfg.get("filter", "")
    seed = int(cfg.get("seed", 0))
    checks = _verify_checks(seed)
    report = {}
    failed = False
    for name, check in sorted(checks.items()):
        if pattern and pattern not in name:
            continue
        measured, tol = check()
        passed = bool(measured <= tol)
        failed = failed or not passed
        report[name] = {"passed": passed, "measured": float(measured),
                        "tolerance": float(tol)}
        print(f"{'PASS' if passed else 'FAIL'} {name}: "
              f"measured={measured:.3e} tol={tol:.1e}")
    if not report:
        raise InputError(f"no verify checks match filter {pattern!r}")
    out = cfg.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "verify.json"),
                    {"meta": _metadata(cfg), "checks": report})
    return 1 if failed else 0


COMMANDS = {
    "quantize": cmd_quantize,
    "converge": cmd_converge,
    "wick": cmd_wick,
    "wigner": cmd_wigner,
    "heat": cmd_heat,
    "mc": cmd_mc,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gweyl",
        description="Quantization over Gaussian measures: operators, ladders, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--dim", type=int)
        p.add_argument("--h", type=float)
        p.add_argument("--degree", type=int)
        p.add_argument("--order", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--filter")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except GweylError as exc:  # pragma: no cover - catch-all for subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
