"""Checks of each request's output files against closed forms or method
properties.  No check compares against a saved copy of earlier output.

Every check returns a list of problems; an empty list means the output is
correct.  They run after a round's requests, outside the timed region.
"""

import csv
import json
import math
import os

import numpy as np

from reference import fourier_operator, smoothed_atom
from workloads import abs_mass, atoms_of

# Weyl entries carry the pair table's cancellation error (about 4e-8 at
# degree 16); anti-Wick entries are exact up to rounding.
WEYL_TOL = 1e-6
ANTIWICK_TOL = 1e-10
CLASSICAL_TOL = 1e-4        # acceptance criterion 02
NORM_RTOL = 1e-5            # power iteration stops at 1e-6 relative on norm^2
HERMITIAN_TOL = 1e-10
WICK_TOL = 1e-3             # truncated coherent states at radius sqrt(h)
SMOOTHED_TOL = 1e-12


def load_operator(path: str):
    """Entries of an operator.json as a complex matrix, and the parsed file."""
    with open(path) as fh:
        data = json.load(fh)
    n = (data["basis"]["max_degree"] + 1) ** data["basis"]["dim"]
    e = np.asarray(data["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(n, n), data


def _load_summary(out: str) -> dict:
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def _indices(dim: int, h: float, degree: int) -> np.ndarray:
    from gweyl.hermite import HermiteBasis

    return HermiteBasis(dim, h, degree).indices


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _norm_matches(summary_norm: float, entries: np.ndarray, what: str) -> list:
    exact = float(np.linalg.norm(entries, 2))
    if _rel(summary_norm, exact) > NORM_RTOL:
        return [f"{what}: norm {summary_norm!r} vs exact {exact!r}"]
    return []


def _selected(cfg: dict):
    method = cfg.get("method", "weyl")
    if method in ("weyl", "weyl_classical"):
        return None
    if method == "antiwick":
        return ()
    return tuple(cfg.get("split", ()))


def check_fourier(cfg: dict, out: str) -> list:
    """Quantized exponential or Fourier measure against the displacement form."""
    sym = cfg["symbol"]
    atoms = atoms_of(sym)
    dim = len(atoms[0][1])
    h, deg = cfg["h"], cfg["degree"]
    entries, _ = load_operator(os.path.join(out, "operator.json"))
    selected = _selected(cfg)
    ref = fourier_operator(atoms, h, _indices(dim, h, deg), selected)
    if cfg.get("method") == "weyl_classical":
        tol = CLASSICAL_TOL
    else:
        tol = ANTIWICK_TOL if selected == () else WEYL_TOL
    tol *= abs_mass(sym)
    problems = []
    err = float(np.abs(entries - ref).max())
    if not err <= tol:
        problems.append(f"entries differ from the closed form by {err:.3e} > {tol:.1e}")
    summary = _load_summary(out)
    problems += _norm_matches(summary["norm"], entries, "summary")
    if "oracle_residual" in summary and not summary["oracle_residual"] <= 1e-5:
        problems.append(f"oracle residual {summary['oracle_residual']:.3e}")
    return problems


def check_classical(cfg: dict, out: str) -> list:
    problems = check_fourier(cfg, out)
    _, data = load_operator(os.path.join(out, "operator.json"))
    resid = data["meta"].get("identity_residual")
    if resid is None or not resid <= 5e-6:
        problems.append(f"identity residual {resid!r} on F = 1")
    return problems


def _hermitian(entries: np.ndarray) -> list:
    defect = float(np.abs(entries - entries.conj().T).max())
    scale = max(float(np.abs(entries).max()), 1.0)
    if not defect <= HERMITIAN_TOL * scale:
        return [f"real symbol gave a non-Hermitian matrix (defect {defect:.3e})"]
    return []


def check_quadratic(cfg: dict, out: str) -> list:
    """exp(-t<TX,X>) is real, so its matrices are Hermitian; its anti-Wick
    operator is positive semidefinite with norm <= sup F = 1."""
    entries, _ = load_operator(os.path.join(out, "operator.json"))
    problems = _hermitian(entries)
    problems += _norm_matches(_load_summary(out)["norm"], entries, "summary")
    if cfg["method"] == "antiwick":
        ev = np.linalg.eigvalsh(0.5 * (entries + entries.conj().T))
        if not (ev[0] >= -1e-10 and ev[-1] <= 1.0 + 1e-10):
            problems.append(f"anti-Wick spectrum [{ev[0]:.3e}, {ev[-1]:.6f}] "
                            "is not inside [0, 1]")
    return problems


def check_lattice(cfg: dict, out: str) -> list:
    entries, _ = load_operator(os.path.join(out, "operator.json"))
    return _hermitian(entries) + _norm_matches(
        _load_summary(out)["norm"], entries, "summary")


def _weyl_norm(cfg: dict) -> float:
    """Spectral norm of the Weyl operator that the full ladder must equal."""
    sym = cfg["symbol"]
    h, deg = cfg["h"], cfg["degree"]
    if sym["family"] in ("exponential", "fourier_measure"):
        dim = len(atoms_of(sym)[0][1])
        op = fourier_operator(atoms_of(sym), h, _indices(dim, h, deg))
    else:
        from gweyl.cli import load_symbol
        from gweyl.hermite import HermiteBasis
        from gweyl.quantize import weyl_matrix

        F = load_symbol(sym)
        op = weyl_matrix(F, HermiteBasis(F.dim, h, deg)).entries
    return float(np.linalg.norm(op, 2))


def check_ladder(cfg: dict, out: str) -> list:
    """The full rung sums T_I-hybrids over all I, which telescopes to the Weyl
    operator of F; every rung difference must sit under its bound."""
    summary = _load_summary(out)
    problems = []
    if summary["all_steps_within_bound"] is not True:
        problems.append("a ladder step exceeds its bound")
    if not summary["final_norm"] <= summary["final_bound"]:
        problems.append("final norm exceeds the norm bound")
    exact = _weyl_norm(cfg)
    if _rel(summary["final_norm"], exact) > NORM_RTOL:
        problems.append(f"final norm {summary['final_norm']!r} differs from the "
                        f"Weyl operator's norm {exact!r}")
    err = summary["norm_error_bar"]
    if err is None or not (math.isfinite(err) and err >= 0.0):
        problems.append(f"norm error bar {err!r}")
    with open(os.path.join(out, "report.csv"), newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    sites = len(cfg["symbol"].get("g") or cfg["symbol"]["a"])
    if len(rows) != sites:
        problems.append(f"report has {len(rows)} rungs for {sites} sites")
    for row in rows:
        if row["diff_norm"] and not float(row["diff_norm"]) <= float(row["diff_bound"]):
            problems.append(f"rung {row['n']} difference above its bound")
    if not rows or _rel(float(rows[-1]["final_norm"]), summary["final_norm"]) > 1e-12:
        problems.append("report and summary disagree on the final norm")
    return problems


def check_wick(cfg: dict, out: str) -> list:
    """Coherent-state diagonal of Weyl(e^{i(a.x+b.xi)}) is the half-smoothed atom."""
    sym = cfg["symbol"]
    a, b, h = sym["a"], sym["b"], cfg["h"]
    dim = len(a)
    with open(os.path.join(out, "wick.csv")) as fh:
        rows = [line.split(",") for line in fh
                if not line.startswith("#") and not line.startswith("x...")]
    problems = []
    if len(rows) != cfg["points"]:
        problems.append(f"{len(rows)} rows for {cfg['points']} points")
    for row in rows:
        vals = [float(v) for v in row]
        x, xi = vals[:dim], vals[dim:2 * dim]
        want = smoothed_atom(a, b, h, x, xi)
        wick = complex(vals[2 * dim], vals[2 * dim + 1])
        smooth = complex(vals[2 * dim + 2], vals[2 * dim + 3])
        if not abs(smooth - want) <= SMOOTHED_TOL:
            problems.append(f"smoothed symbol off by {abs(smooth - want):.3e}")
        if not abs(wick - want) <= WICK_TOL:
            problems.append(f"Wick symbol off by {abs(wick - want):.3e}")
    return problems


def check_verify(cfg: dict, out: str) -> list:
    with open(os.path.join(out, "verify.json")) as fh:
        checks = json.load(fh)["checks"]
    return [f"verify check {name} failed" for name, rec in checks.items()
            if rec["passed"] is not True] or ([] if checks else ["no verify checks"])


CHECKS = {
    "fourier": check_fourier,
    "classical": check_classical,
    "quadratic": check_quadratic,
    "lattice": check_lattice,
    "ladder": check_ladder,
    "wick": check_wick,
    "verify": check_verify,
}


def check(req, out: str) -> list:
    try:
        return CHECKS[req.check](req.config, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
