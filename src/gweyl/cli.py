"""Batch command-line front end.

Subcommands: quantize, converge, wick, wigner, heat, mc, verify.  Every
command reads a JSON config (--config) and takes as flags only the config
values it reads (``FLAGS``): --h and --degree on quantize, converge and
wick, --dim, --h and --degree on wigner, --h on mc, --seed on wick, heat,
mc and verify, --filter on verify, and --out on all; flags win over the
file.  All randomness flows from the config seed.  Output files carry a
metadata header: package version, config hash, seed, numpy version, BLAS
build and BLAS thread count; in a CSV it is ``# key=value`` lines, and every
CSV line ends in LF, not CRLF.  Rerunning a config with the same numpy/BLAS
build and BLAS thread count reproduces them bit-identically.  Operator
entries and coefficients are listed in Kronecker order of the multi-degrees
(the last coordinate varies fastest).

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
diagnostic failure, 4 resource cap.  Environment: GW_MAX_NODES bounds
quadrature grids: the chain route's site tables, the classical-kernel grid
and tensor rules (the atom and Gaussian routes have none); GW_MAX_SUBSETS
bounds 2^|I| subset expansions.
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
    constant_rep, write_csv,
)
from .mc import SIGMA_FAIL, lattice_norm_probability, mc_integral, sample_brownian
from .quantize import (
    ROUTE_KEYS,
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
    # numpy, its BLAS and the BLAS thread count decide the last bits of the
    # reductions, so they are recorded with the config
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = os.environ
    return {
        "version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": _seed(cfg),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": (env.get("OPENBLAS_NUM_THREADS")
                         or env.get("OMP_NUM_THREADS") or "default"),
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


_REQUIRED = object()


def _integer(value, key: str) -> int:
    """value if it is a JSON integer: a bool, a float or a string exits 2."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _integers(values, key: str) -> tuple:
    return tuple(_integer(v, f"each entry of {key}") for v in values)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value, key: str) -> float:
    """float(value) if it is a JSON number: a bool or a string exits 2."""
    if not _is_number(value):
        raise InputError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _reals(values, key: str) -> np.ndarray:
    return np.array([_real(v, f"each entry of {key}") for v in values])


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{key} must be a string, got {json.dumps(value)}")
    return value


@_reads_config
def _option(cfg: dict, key: str, cast, default=_REQUIRED):
    """cast(cfg[key], key); the default when the key is absent or null."""
    if cfg.get(key) is None:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    return cast(cfg[key], key)


def _positive(cfg: dict, key: str, cast, default):
    """A value that sizes or scales the work: > 0, so a count is >= 1."""
    v = _option(cfg, key, cast, default)
    if not v > 0:
        raise InputError(f"{key} must be > 0, got {v}")
    return v


def _seed(cfg: dict) -> int:
    """The seed: an integer 0 <= seed < 2^64, the uint64 key of the Philox
    stream behind every random draw (``gaussian.sample``)."""
    seed = _option(cfg, "seed", _integer, 0)
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must be an integer in [0, 2^64), got {seed}")
    return seed


@_reads_config
def load_symbol(spec: dict) -> SymbolDescriptor:
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("symbol spec must be an object with a 'family' key")
    fam = spec["family"]
    if fam == "exponential":
        return make_exponential(_reals(spec["a"], "a"), _reals(spec["b"], "b"))
    if fam == "constant":
        return make_constant(spec.get("value", 1.0), _integer(spec["dim"], "dim"))
    if fam == "fourier_measure":
        atoms = []
        for atom in spec["atoms"]:
            w = atom["weight"]
            if isinstance(w, list) and len(w) == 2 and all(map(_is_number, w)):
                w = complex(w[0], w[1])
            elif not _is_number(w):
                raise InputError("an atom weight must be a number or an [re, im] "
                                 f"pair, got {json.dumps(w)}")
            atoms.append((w, _reals(atom["a"], "a"), _reals(atom["b"], "b")))
        return make_fourier_measure(atoms)
    if fam == "quadratic":
        T = np.array([_reals(row, "T") for row in spec["T"]])
        return make_quadratic(T, _real(spec["t"], "t"))
    if fam == "lattice":
        V = spec.get("V", "cos")
        if V != "cos":
            raise InputError("the CLI supports the cosine bond potential only")
        params = LatticeSymbolParams(
            d=_integer(spec.get("d", 1), "d"),
            g=tuple(_real(x, "each entry of g") for x in spec["g"]),
            t=_real(spec.get("t", 1.0), "t"),
            V=V,
        )
        return make_lattice(params, _integer(spec.get("m", 2), "m"))
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
        if not isinstance(cfg, dict):
            raise InputError(f"a config must be a JSON object, got {json.dumps(cfg)}")
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("command", "config"))
    return cfg


@_reads_config
def _basis_from(cfg: dict, dim: int) -> HermiteBasis:
    return HermiteBasis(dim, _real(cfg.get("h", 0.5), "h"),
                        _integer(cfg.get("degree", 8), "degree"))


def _outdir(cfg: dict) -> str:
    out = _option(cfg, "out", _string, "gweyl-out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict) -> str:
    """Write payload as indented JSON in one call; returns the text."""
    text = json.dumps(payload, indent=1, default=str)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def cmd_quantize(cfg: dict) -> int:
    meta = _metadata(cfg)
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    method = cfg.get("method", "weyl")
    if method == "weyl":
        op = weyl_matrix(sym, basis)
    elif method == "antiwick":
        op = antiwick_matrix(sym, basis)
    elif method == "hybrid":
        split = CoordinateSplit(basis.dim, _option(cfg, "split", _integers, ()))
        op = hybrid_matrix(sym, split, basis)
    elif method == "weyl_classical":
        op = weyl_matrix_classical(sym, basis,
                                   _positive(cfg, "oversample", _real, 3.5))
    else:
        raise InputError(f"unknown method {method!r}")
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
        **{k: op.meta[k] for k in ROUTE_KEYS if k in op.meta},
    }
    if sym.oracle is not None and sym.oracle.get("kind") == "U" and method == "weyl":
        U = oracle_U(sym.oracle["a"], sym.oracle["b"], basis.h, basis)
        summary["oracle_residual"] = operator_norm(
            op.entries - U.entries
        ) / max(operator_norm(U), 1e-300)
    print(_write_json(os.path.join(out, "summary.json"), summary))
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
    return IndexLadder(dim, tuple(_integers(s, "ladder") for s in subsets))


def cmd_converge(cfg: dict) -> int:
    meta = _metadata(cfg)
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    ladder = _ladder_from(cfg, basis.dim)
    rep = ladder_run(sym, ladder, basis)
    out = _outdir(cfg)
    rep.to_csv(os.path.join(out, "report.csv"), meta)
    _svg_plot(os.path.join(out, "report.svg"), rep.steps, meta)
    summary = {
        "meta": meta,
        "final_norm": rep.final_norm,
        "final_bound": rep.final_bound,
        "norm_error_bar": rep.norm_error_bar,
        "norm_error_bar_floor": rep.norm_error_bar_floor,
        "route_residual": rep.route_residual,
        "rung_routes": [s.route for s in rep.steps],
        "error_bar_route": rep.error_bar_route,
        "bound_ratios": rep.bound_ratios,
        "vacuous_bound": rep.vacuous_bound,
        "all_steps_within_bound": rep.ok,
    }
    print(_write_json(os.path.join(out, "summary.json"), summary))
    return 0


def cmd_wick(cfg: dict) -> int:
    sym = load_symbol(cfg.get("symbol", {}))
    basis = _basis_from(cfg, sym.dim)
    h = basis.h
    n_pts = _positive(cfg, "points", _integer, 20)
    radius = _option(cfg, "radius", _real, math.sqrt(h))
    pts = quasi_ball(n_pts, 2 * sym.dim, radius, _seed(cfg))
    op = weyl_matrix(sym, basis)
    rows = []
    worst = 0.0
    for p in pts:
        X = PhasePoint(p[: sym.dim], p[sym.dim:])
        left = wick_symbol(op, X)
        right = heat_full(sym, 0.5 * h, X)
        resid = abs(left - right)
        worst = max(worst, resid)
        rows.append([*p.tolist(), left.real, left.imag, right.real, right.imag,
                     resid])
    out = _outdir(cfg)
    meta = _metadata(cfg)
    write_csv(os.path.join(out, "wick.csv"), meta,
              ["x...", "xi...", "wick_re", "wick_im", "smoothed_re",
               "smoothed_im", "residual"], rows)
    print(json.dumps({"meta": meta, "worst_residual": worst}, indent=1))
    return 0


@_reads_config
def _load_rep(spec: dict, basis: HermiteBasis, key: str):
    if not isinstance(spec, dict):
        raise InputError(f"{key} must be an object, got {json.dumps(spec)}")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return constant_rep(basis, spec.get("value", 1.0))
    if kind == "basis":
        return basis_element(basis, _integers(spec["alpha"], "alpha"))
    if kind == "coherent":
        X = PhasePoint(_reals(spec["x"], "x"), _reals(spec["xi"], "xi"))
        return coherent_state(X, basis.h, basis)
    if kind == "coeffs":
        return FunctionRep(basis, complex_from_pairs(spec["coeffs"]))
    raise InputError(f"unknown function kind {kind!r}")


def cmd_wigner(cfg: dict) -> int:
    dim = _option(cfg, "dim", _integer, 1)
    basis = _basis_from(cfg, dim)
    f = _load_rep(cfg.get("f", {"kind": "constant"}), basis, "f")
    g = _load_rep(cfg.get("g", cfg.get("f", {"kind": "constant"})), basis, "g")
    n = _positive(cfg, "grid_points", _integer, 21)
    zmax = _option(cfg, "zmax", _real, 2.0)
    zetamax = _option(cfg, "zetamax", _real, 2.0)
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
    t = _positive(cfg, "t", _real, 0.25)
    n_pts = _positive(cfg, "points", _integer, 10)
    pts = quasi_ball(n_pts, 2 * sym.dim, _option(cfg, "radius", _real, 2.0),
                     _seed(cfg))
    coords = _option(cfg, "coords", _integers, tuple(range(sym.dim)))
    G = smooth_symbol(sym, coords, t)
    vals = G(pts[:, : sym.dim], pts[:, sym.dim:])
    out = _outdir(cfg)
    meta = _metadata(cfg)
    write_csv(os.path.join(out, "heat.csv"), meta, ["z...", "zeta...", "re", "im"],
              np.column_stack([pts, np.real(vals), np.imag(vals)]).tolist())
    print(json.dumps({"meta": meta, "t": t, "n": n_pts}, indent=1))
    return 0


def cmd_mc(cfg: dict) -> int:
    kind = cfg.get("experiment", "brownian")
    seed = _seed(cfg)
    h = _option(cfg, "h", _real, 0.5)
    out = _outdir(cfg)
    meta = _metadata(cfg)
    if kind == "brownian":
        K = _positive(cfg, "K", _integer, 64)
        n = _positive(cfg, "n", _integer, 10000)
        ens = sample_brownian(K, h, n, seed)
        ens.to_csv(os.path.join(out, "brownian.csv"), meta)
        var = float(np.var(ens.paths[:, -1]))
        z = abs(var - h) / (h * math.sqrt(2.0 / n))
        result = {"meta": meta, "endpoint_variance": var, "expected": h,
                  "z_score": z, "pass": bool(z < SIGMA_FAIL)}
    elif kind == "lattice_norm":
        b_weights = _option(cfg, "b", _reals)
        rows = lattice_norm_probability(b_weights, _positive(cfg, "eps", _real, _REQUIRED), h,
                                        _option(cfg, "ladder", _integers),
                                        _positive(cfg, "n", _integer, 100000), seed)
        write_csv(os.path.join(out, "lattice_norm.csv"), meta,
                  ["sites", "mc", "stderr", "exact"], rows)
        worst = max(abs(mcv - exact) / max(se, 1e-12) for _, mcv, se, exact in rows)
        result = {"meta": meta, "worst_z": worst, "pass": bool(worst < SIGMA_FAIL)}
    elif kind == "integral":
        a = _option(cfg, "a", _reals, np.ones(1))
        n = _positive(cfg, "n", _integer, 100000)
        est, se = mc_integral(lambda x: np.exp(x @ a), a.shape[0], h, n, seed)
        want = exp_integral(a, h).real
        z = abs(est - want) / max(se, 1e-12)
        result = {"meta": meta, "estimate": est, "stderr": se, "closed_form": want,
                  "z_score": z, "pass": bool(z < SIGMA_FAIL)}
    else:
        raise InputError(f"unknown mc experiment {kind!r}")
    print(_write_json(os.path.join(out, "mc.json"), result))
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
    pattern = _option(cfg, "filter", _string, "")
    seed = _seed(cfg)
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
    out = _option(cfg, "out", _string, None)
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

# the config values each command reads that a flag may set
FLAGS = {
    "quantize": ("h", "degree", "out"),
    "converge": ("h", "degree", "out"),
    "wick": ("h", "degree", "seed", "out"),
    "wigner": ("dim", "h", "degree", "out"),
    "heat": ("seed", "out"),
    "mc": ("h", "seed", "out"),
    "verify": ("seed", "out", "filter"),
}
_FLAG_TYPES = {"dim": int, "h": float, "degree": int, "seed": int}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gweyl",
        description="Quantization over Gaussian measures: operators, ladders, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        # no abbreviations: --h on a command without it would be --help
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        for flag in flags:
            p.add_argument(f"--{flag}", type=_FLAG_TYPES.get(flag, str))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if _option(cfg, "out", _string, None) == "":  # before any work is done
            raise InputError('out must be a non-empty path, got ""')
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
