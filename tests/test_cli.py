import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gweyl import HermiteBasis, OperatorMatrix, make_exponential
from gweyl.cli import COMMANDS, load_symbol, main
from gweyl.quantize import oracle_U, weyl_matrix

H = 0.5


def run_cli(args):
    return main(args)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_quantize_exponential_with_oracle_residual(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "q.json", {
        "symbol": {"family": "exponential", "a": [1.1], "b": [-0.6]},
        "method": "weyl", "h": 0.5, "degree": 10, "seed": 1,
        "out": str(out),
    })
    assert run_cli(["quantize", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle_residual"] < 1e-5
    assert (summary["route"], summary["atoms"]) == ("atoms", 1)
    op = json.loads((out / "operator.json").read_text())
    assert op["basis"] == {"dim": 1, "h": 0.5, "max_degree": 10}
    assert len(op["entries"]) == 11 * 11
    assert "config_hash" in op["meta"]


# Single-atom exponentials in dim >= 2: compressions of a near-unitary with
# near-degenerate top singular values.  Weyl(F) is the oracle U itself and
# anti-Wick(F) = exp(-h(|a|^2+|b|^2)/4) U.
EXP_2D = {"a": [1.1, 0.4], "b": [-0.6, 0.3]}
EXP_3D = {"a": [1.0, -0.5, 0.3], "b": [0.2, 0.8, -0.4]}


@pytest.mark.parametrize("ab, method, degree", [
    (EXP_2D, "weyl", 10),
    (EXP_3D, "antiwick", 3),
], ids=["weyl-2d", "antiwick-3d"])
def test_quantize_exponential_norm_is_exact(tmp_path, ab, method, degree):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "q.json", {
        "symbol": {"family": "exponential", **ab},
        "method": method, "h": H, "degree": degree, "out": str(out),
    })
    assert run_cli(["quantize", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    a, b = np.array(ab["a"]), np.array(ab["b"])
    U = oracle_U(a, b, H, HermiteBasis(a.size, H, degree)).entries
    scale = 1.0 if method == "weyl" else math.exp(-0.25 * H * (a @ a + b @ b))
    assert abs(summary["norm"] - scale * np.linalg.norm(U, 2)) < 1e-10


def test_converge_exponential_final_norm(tmp_path):
    out = tmp_path / "conv"
    cfg = write_cfg(tmp_path, "e.json", {
        "symbol": {"family": "exponential", **EXP_3D},
        "h": H, "degree": 3, "out": str(out),
    })
    assert run_cli(["converge", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    F = make_exponential(EXP_3D["a"], EXP_3D["b"])
    want = np.linalg.norm(weyl_matrix(F, HermiteBasis(3, H, 3)).entries, 2)
    assert abs(summary["final_norm"] - want) < 1e-10


def test_quantize_constant_gives_identity(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"family": "constant", "value": 1.0, "dim": 1},
        "method": "antiwick", "h": 0.5, "degree": 6, "out": str(out),
    })
    assert run_cli(["quantize", "--config", cfg]) == 0
    op = json.loads((out / "operator.json").read_text())
    n = 7
    ent = np.array([complex(re, im) for re, im in op["entries"]]).reshape(n, n)
    assert np.abs(ent - np.eye(n)).max() < 1e-6


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["quantize", "--config", str(bad)]) == 2
    assert run_cli(["quantize", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "fam.json", {"symbol": {"family": "nope"}})
    assert run_cli(["quantize", "--config", cfg]) == 2
    # a missing key (KeyError), a non-integer degree (ValueError), a ladder
    # that is not a list of subsets and coefficients that are not [re, im]
    # pairs (TypeError) are input errors too, not verification failures
    exp = {"family": "exponential", "a": [0.5], "b": [0.2]}
    lattice = {"family": "lattice", "g": [0.3, 0.2]}
    for name, command, payload in [
        ("key.json", "quantize", {"symbol": {"family": "exponential", "b": [0.2]}}),
        ("deg.json", "quantize", {"symbol": exp, "degree": "abc"}),
        ("ladder.json", "converge", {"symbol": lattice, "degree": 1, "ladder": 5}),
        ("coeffs.json", "wigner", {"degree": 1, "f": {"kind": "coeffs",
                                                      "coeffs": [1, 2]}}),
        # values read inside the command functions
        ("split.json", "quantize", {"symbol": exp, "method": "hybrid", "split": 3}),
        ("points.json", "wick", {"symbol": exp, "degree": 2, "points": "x"}),
        ("K.json", "mc", {"K": "x"}),
        ("b.json", "mc", {"experiment": "lattice_norm", "eps": 1.2,
                          "ladder": [1]}),
    ]:
        payload["out"] = str(tmp_path / "out")
        assert run_cli([command, "--config", write_cfg(tmp_path, name, payload)]) == 2


def test_parser_is_built_once():
    from gweyl.cli import build_parser

    assert build_parser() is build_parser()
    build_parser.cache_clear()
    assert run_cli(["verify", "--filter", "basis_orthonormality"]) == 0


def test_cold_import_loads_no_scipy():
    # a fresh process, because this suite's own modules import scipy
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, gweyl, gweyl.cli\n"
            "print(*sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
            "               if m == 'scipy' or m.startswith('scipy.')}))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = done.stdout.split()
    assert not loaded, f"import gweyl.cli loaded {', '.join(loaded)}"


_EXP_1D = {"family": "exponential", "a": [0.8], "b": [0.3]}
# criterion 03's lattice
_LATTICE_03 = {"family": "lattice", "g": [0.5 * 0.7**j for j in range(4)],
               "t": 1.0, "V": "cos", "m": 2}

# per case: the command and its config
_FRESH_RUNS = {
    # Bessel coefficients, the site tables' Gauss-Hermite rules and norms up
    # to n = 625
    "converge": ("converge", {"symbol": _LATTICE_03, "h": 0.5, "degree": 3}),
    # the Gauss-Hermite rule of oracle_U
    "quantize": ("quantize", {"symbol": {"family": "exponential", "a": [1.1], "b": [-0.6]},
                              "method": "weyl", "h": 0.5, "degree": 10}),
    # normal quantiles of the Halton points
    "wick": ("wick", {"symbol": _EXP_1D, "h": 0.5, "degree": 12, "points": 6, "seed": 2}),
    "wigner": ("wigner", {"f": {"kind": "coherent", "x": [0.3], "xi": [-0.2]},
                          "dim": 1, "h": 0.5, "degree": 12}),
    "heat": ("heat", {"symbol": _EXP_1D, "t": 0.3, "points": 6, "seed": 2}),
    # the exact sup-ball product of erf
    "mc": ("mc", {"experiment": "lattice_norm", "b": [1.0, 2.0, 3.0], "eps": 1.2,
                  "h": 0.7, "ladder": [1, 2, 3], "n": 50000, "seed": 5}),
    "verify": ("verify", {"seed": 3}),
    # the recurrence and a dense eigvalsh
    "quantize-quadratic": ("quantize", {"symbol": {"family": "quadratic",
                                                   "T": [[1.0, 0.3], [0.3, 0.5]], "t": 0.7},
                                        "method": "weyl", "h": 0.5, "degree": 12}),
}


@pytest.mark.parametrize("case", [*COMMANDS, "quantize-quadratic"])
def test_command_loads_only_its_scipy_parts(tmp_path, case):
    # scipy is a test dependency only: in a fresh process (this suite's own
    # modules import scipy) with every scipy import refused and recorded,
    # each command must exit 0 having tried none; a command with no case in
    # _FRESH_RUNS fails
    command, cfg = _FRESH_RUNS[case]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = write_cfg(tmp_path, "cfg.json", {**cfg, "out": str(tmp_path / "out")})
    code = ("import json, sys\n"
            "tried = []\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            tried.append(name)\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from gweyl.cli import main\n"
            f"code = main([{command!r}, '--config', {path!r}])\n"
            "print(json.dumps([code, tried]))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize("g", [[12.5] * 4, [18.85, 18.85]])
def test_lattice_coupling_sum_overflow_exits_2(tmp_path, capsys, g):
    # each bond passes the I_0 check, but M = exp(-2 t inf(V) sum_b g_b g_(b+1))
    # overflows float64
    cfg = write_cfg(tmp_path, "l.json", {
        "symbol": {"family": "lattice", "g": g, "t": 1.0, "V": "cos", "m": 2},
        "method": "weyl", "h": 0.5, "degree": 2, "out": str(tmp_path / "out"),
    })
    assert run_cli(["quantize", "--config", cfg]) == 2
    assert "coupling sum" in capsys.readouterr().err


def test_quantize_reproducible_outputs(tmp_path):
    cfgd = {
        "symbol": {"family": "exponential", "a": [0.9], "b": [0.2]},
        "method": "weyl", "h": 0.5, "degree": 6, "seed": 3,
    }
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = write_cfg(tmp_path, f"{sub}.json", {**cfgd, "out": str(out)})
        assert run_cli(["quantize", "--config", cfg]) == 0
        outs.append((out / "operator.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("method", ["weyl", "antiwick"])
def test_operator_json_of_a_product_symbol_is_the_kron_of_its_factors(tmp_path,
                                                                      method):
    # basis order is Kronecker order, so the file of a dim-2 exponential is
    # np.kron of the files of its two dim-1 factors
    def entries(a, b, sub):
        out = tmp_path / sub
        cfg = write_cfg(tmp_path, f"{sub}.json", {
            "symbol": {"family": "exponential", "a": a, "b": b},
            "method": method, "h": H, "degree": 5, "out": str(out),
        })
        assert run_cli(["quantize", "--config", cfg]) == 0
        op = json.loads((out / "operator.json").read_text())
        pairs = np.array(op["entries"])
        return pairs[:, 0] + 1j * pairs[:, 1]

    full = entries([1.1, 0.4], [-0.6, 0.3], "xy")
    first = entries([1.1], [-0.6], "x").reshape(6, 6)
    second = entries([0.4], [0.3], "y").reshape(6, 6)
    assert np.abs(full.reshape(36, 36) - np.kron(first, second)).max() < 1e-13


def test_metadata_records_numpy_blas_and_threads(tmp_path, monkeypatch):
    cfgd = {"symbol": {"family": "exponential", "a": [0.9], "b": [0.2]},
            "method": "antiwick", "h": H, "degree": 2}
    cases = [({}, "default"), ({"OMP_NUM_THREADS": "3"}, "3"),
             ({"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "1"}, "1")]
    for i, (env, want) in enumerate(cases):
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / str(i)
        cfg = write_cfg(tmp_path, f"{i}.json", {**cfgd, "out": str(out)})
        assert run_cli(["quantize", "--config", cfg]) == 0
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["numpy"] == np.__version__
        assert meta["blas"] and "None" not in meta["blas"]
        assert meta["blas_threads"] == want


def test_converge_lattice(tmp_path, capsys):
    out = tmp_path / "conv"
    cfg = write_cfg(tmp_path, "l.json", {
        "symbol": {"family": "lattice", "g": [0.4, 0.3, 0.2], "t": 1.0,
                   "V": "cos", "m": 2},
        "h": 0.5, "degree": 2, "out": str(out), "seed": 0,
    })
    assert run_cli(["converge", "--config", cfg]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    header = lines[lines[0].startswith("#") + 2 - 2]
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0].split(",") == ["n", "lambda_size", "diff_norm", "diff_bound",
                                  "tail", "final_norm", "cv_bound"]
    data = [r.split(",") for r in rows[1:]]
    tails = [float(r[4]) for r in data]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    for r in data[1:]:
        assert float(r[2]) <= float(r[3])
    assert (out / "report.svg").read_text().startswith("<svg")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_steps_within_bound"] is True
    assert summary["route_residual"] < 1e-12
    assert summary["bound_ratios"] == [float(r[2]) / float(r[3])
                                       for r in data[1:]]
    assert summary["vacuous_bound"] is True
    assert 0.0 < summary["norm_error_bar_floor"] < summary["norm_error_bar"]
    assert summary["rung_routes"] == ["chain"] * 3
    assert summary["error_bar_route"] == "chain"
    # the summary is encoded once: stdout is the file's text
    assert capsys.readouterr().out == (out / "summary.json").read_text() + "\n"


def test_converge_two_ladders_agree(tmp_path):
    base = {
        "symbol": {"family": "lattice", "g": [0.4, 0.3, 0.2], "t": 1.0,
                   "V": "cos", "m": 2},
        "h": 0.5, "degree": 2, "seed": 0,
    }
    norms = []
    for name, ladder in [("l1", [[0], [0, 1], [0, 1, 2]]),
                         ("l2", [[2], [1, 2], [0, 1, 2]])]:
        out = tmp_path / name
        cfg = write_cfg(tmp_path, f"{name}.json",
                        {**base, "ladder": ladder, "out": str(out)})
        assert run_cli(["converge", "--config", cfg]) == 0
        norms.append(json.loads((out / "summary.json").read_text())["final_norm"])
    assert abs(norms[0] - norms[1]) < 1e-8


def test_converge_without_metadata_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "symbol": {"family": "constant", "value": 1.0, "dim": 2},
        "h": 0.5, "degree": 2, "out": str(tmp_path / "x"),
    })
    assert run_cli(["converge", "--config", cfg]) == 2


def test_classical_resolution_failure_exits_3(tmp_path, monkeypatch):
    import gweyl.quantize as q

    monkeypatch.setattr(q, "_DIAG_CACHE", {})
    cfg = write_cfg(tmp_path, "cl.json", {
        "symbol": {"family": "exponential", "a": [0.5], "b": [0.2]},
        "method": "weyl_classical", "oversample": 0.6,
        "h": 0.5, "degree": 8, "out": str(tmp_path / "cl"),
    })
    assert run_cli(["quantize", "--config", cfg]) == 3


def test_classical_method_via_cli(tmp_path):
    cfg = write_cfg(tmp_path, "cl2.json", {
        "symbol": {"family": "constant", "value": 1.0, "dim": 1},
        "method": "weyl_classical",
        "h": 0.5, "degree": 5, "out": str(tmp_path / "cl2"),
    })
    assert run_cli(["quantize", "--config", cfg]) == 0
    op = json.loads((tmp_path / "cl2" / "operator.json").read_text())
    ent = np.array([complex(re, im) for re, im in op["entries"]]).reshape(6, 6)
    assert np.abs(ent - np.eye(6)).max() < 1e-6
    summary = json.loads((tmp_path / "cl2" / "summary.json").read_text())
    assert (summary["route"], summary["atoms"]) == ("atoms", 1)


def test_classical_generic_dim2_symbol_exits_4(tmp_path):
    # the oracle takes generic symbols in dim 1 only; a Gaussian symbol has
    # no atoms, so in dim 2 it is refused as a resource limit
    cfg = write_cfg(tmp_path, "cl3.json", {
        "symbol": {"family": "quadratic", "T": np.eye(4).tolist(), "t": 0.3},
        "method": "weyl_classical",
        "h": 0.5, "degree": 2, "out": str(tmp_path / "cl3"),
    })
    assert run_cli(["quantize", "--config", cfg]) == 4


def _capped_lattice_converge(tmp_path, monkeypatch, ladder):
    # GW_MAX_SUBSETS caps the first rung's 2^|Lambda_1| subset expansion
    monkeypatch.setenv("GW_MAX_SUBSETS", "2")
    cfg = write_cfg(tmp_path, "big.json", {
        "symbol": {"family": "lattice", "g": [0.4, 0.3, 0.2], "t": 1.0,
                   "V": "cos", "m": 2},
        "h": 0.5, "degree": 1, "ladder": ladder, "out": str(tmp_path / "y"),
    })
    return run_cli(["converge", "--config", cfg])


def test_converge_resource_cap_exits_4(tmp_path, monkeypatch):
    assert _capped_lattice_converge(tmp_path, monkeypatch, [[0, 1, 2]]) == 4


def test_converge_nested_ladder_within_first_rung_cap(tmp_path, monkeypatch):
    nested = [[0], [0, 1], [0, 1, 2]]
    assert _capped_lattice_converge(tmp_path, monkeypatch, nested) == 0


def test_wick_command(tmp_path):
    out = tmp_path / "wick"
    cfg = write_cfg(tmp_path, "w.json", {
        "symbol": {"family": "exponential", "a": [0.8], "b": [0.3]},
        "h": 0.5, "degree": 12, "points": 6, "seed": 2, "out": str(out),
    })
    assert run_cli(["wick", "--config", cfg]) == 0
    lines = (out / "wick.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    worst = max(float(row.split(",")[-1]) for row in data[1:])
    assert worst < 1e-3


def test_wigner_command(tmp_path):
    out = tmp_path / "wig"
    cfg = write_cfg(tmp_path, "g.json", {
        "f": {"kind": "basis", "alpha": [1]},
        "dim": 1, "h": 0.5, "degree": 5, "grid_points": 7,
        "out": str(out),
    })
    assert run_cli(["wigner", "--config", cfg]) == 0
    lines = (out / "wigner.csv").read_text().splitlines()
    assert any(l.startswith("# version=") for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 49


@pytest.mark.parametrize("alpha", [[1, 1], [1, 0, 0], [6]])
def test_wigner_basis_alpha_outside_the_basis_exits_2(tmp_path, capsys, alpha):
    # a two-entry alpha at dim 1 used to broadcast onto e_1
    cfg = write_cfg(tmp_path, "a.json", {
        "f": {"kind": "basis", "alpha": alpha},
        "dim": 1, "h": H, "degree": 5, "grid_points": 3,
        "out": str(tmp_path / "wig"),
    })
    assert run_cli(["wigner", "--config", cfg]) == 2
    assert "outside the basis" in capsys.readouterr().err


@pytest.mark.parametrize("zetamax", [4.0, 5.0])
def test_wigner_command_matches_coherent_closed_form(tmp_path, zetamax):
    # far from the origin the pair transform grows like exp(|Z|^2/h); the
    # grid must follow the closed form there, not quadrature rounding
    from gweyl import PhasePoint, wigner_coherent

    out = tmp_path / "wig"
    cfg = write_cfg(tmp_path, "c.json", {
        "f": {"kind": "coherent", "x": [0.3], "xi": [-0.2]},
        "dim": 1, "h": H, "degree": 30, "zmax": 2.0, "zetamax": zetamax,
        "out": str(out),
    })
    assert run_cli(["wigner", "--config", cfg]) == 0
    lines = (out / "wigner.csv").read_text().splitlines()
    data = np.array([[float(v) for v in l.split(",")]
                     for l in lines if not l.startswith(("#", "z0"))])
    X = PhasePoint([0.3], [-0.2])
    want = np.array([wigner_coherent(X, X, PhasePoint([z], [zeta]), H)
                     for z, zeta in data[:, :2]])
    got = data[:, 2] + 1j * data[:, 3]
    assert len(got) == 21 * 21
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_heat_command(tmp_path):
    out = tmp_path / "heat"
    cfg = write_cfg(tmp_path, "h.json", {
        "symbol": {"family": "quadratic",
                   "T": [[0.5, 0.0], [0.0, 0.3]], "t": 1.0},
        "t": 0.25, "points": 5, "out": str(out),
    })
    assert run_cli(["heat", "--config", cfg]) == 0
    assert (out / "heat.csv").exists()


def test_mc_commands(tmp_path):
    out = tmp_path / "mc1"
    cfg = write_cfg(tmp_path, "m1.json", {
        "experiment": "integral", "a": [0.7], "h": 0.5, "n": 50000,
        "seed": 4, "out": str(out),
    })
    assert run_cli(["mc", "--config", cfg]) == 0
    result = json.loads((out / "mc.json").read_text())
    assert result["pass"] is True
    out2 = tmp_path / "mc2"
    cfg2 = write_cfg(tmp_path, "m2.json", {
        "experiment": "lattice_norm", "b": [1.0, 2.0, 3.0], "eps": 1.2,
        "h": 0.7, "ladder": [1, 2, 3], "n": 50000, "seed": 5,
        "out": str(out2),
    })
    assert run_cli(["mc", "--config", cfg2]) == 0
    assert (out2 / "lattice_norm.csv").exists()
    assert json.loads((out2 / "mc.json").read_text())["pass"] is True
    out3 = tmp_path / "mc3"
    cfg3 = write_cfg(tmp_path, "m3.json", {
        "experiment": "brownian", "K": 8, "h": 0.5, "n": 2000, "seed": 6,
        "out": str(out3),
    })
    assert run_cli(["mc", "--config", cfg3]) == 0
    assert json.loads((out3 / "mc.json").read_text())["pass"] is True


def test_verify_default_and_filter(tmp_path, capsys):
    assert run_cli(["verify", "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(c["passed"] for c in report["checks"].values())
    capsys.readouterr()
    assert run_cli(["verify", "--filter", "wick"]) == 0
    shown = capsys.readouterr().out
    assert "wick_vs_quadrature" in shown
    assert "basis_orthonormality" not in shown
    assert run_cli(["verify", "--filter", "no_such_check"]) == 2


def test_flag_overrides_win_over_config(tmp_path):
    out = tmp_path / "ov"
    cfg = write_cfg(tmp_path, "o.json", {
        "symbol": {"family": "constant", "value": 1.0, "dim": 1},
        "method": "weyl", "h": 0.5, "degree": 3, "out": "ignored",
    })
    assert run_cli(["quantize", "--config", cfg, "--degree", "5",
                    "--out", str(out)]) == 0
    op = json.loads((out / "operator.json").read_text())
    assert op["basis"]["max_degree"] == 5


# the flags each command takes: the config values it reads
COMMAND_FLAGS = {
    "quantize": {"h", "degree", "out"},
    "converge": {"h", "degree", "out"},
    "wick": {"h", "degree", "seed", "out"},
    "wigner": {"dim", "h", "degree", "out"},
    "heat": {"seed", "out"},
    "mc": {"h", "seed", "out"},
    "verify": {"seed", "out", "filter"},
}
ALL_FLAGS = ("dim", "h", "degree", "order", "seed", "out", "filter")
EXP_1D = {"family": "exponential", "a": [0.8], "b": [0.3]}
SMALL = {
    "quantize": {"symbol": EXP_1D, "h": H, "degree": 4},
    "converge": {"symbol": {"family": "lattice", "g": [0.4, 0.3], "t": 1.0,
                            "V": "cos", "m": 2}, "h": H, "degree": 1},
    "wick": {"symbol": EXP_1D, "h": H, "degree": 4, "points": 3, "seed": 1},
    "wigner": {"f": {"kind": "coherent", "x": [0.3], "xi": [-0.2]}, "dim": 1,
               "h": H, "degree": 3, "grid_points": 3},
    "heat": {"symbol": EXP_1D, "points": 3, "seed": 1},
    "mc": {"experiment": "integral", "a": [0.7], "h": H, "n": 100, "seed": 1},
    "verify": {"seed": 1, "filter": "weyl_oracle_exponential"},
}
FLAG_VALUES = {"dim": "2", "h": "0.7", "degree": "5", "seed": "2",
               "filter": "basis_orthonormality"}


def _results(tmp_path, name, command, cfg, *flags):
    """Exit code and output files of one run, with the metadata left out."""
    out = tmp_path / name
    path = write_cfg(tmp_path, f"{name}.json", {**cfg, "out": str(out)})
    code = run_cli([command, "--config", path, *flags])
    files = {}
    for p in sorted(out.glob("*")) if out.exists() else []:
        if p.suffix == ".json":
            doc = json.loads(p.read_text())
            doc.pop("meta", None)
            files[p.name] = doc
        else:
            files[p.name] = [l for l in p.read_text().splitlines()
                             if not l.startswith(("#", "<!--"))]
    return code, files


def test_each_parser_accepts_exactly_its_flags():
    import argparse
    from gweyl.cli import COMMANDS, build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS) == set(COMMAND_FLAGS)
    for name, parser in sub.choices.items():
        got = {s for a in parser._actions for s in a.option_strings}
        want = {"--config"} | {f"--{f}" for f in COMMAND_FLAGS[name]}
        assert got - {"-h", "--help"} == want, name


@pytest.mark.parametrize("command, flag", [
    (c, f) for c, flags in COMMAND_FLAGS.items() for f in sorted(flags)])
def test_each_flag_reaches_the_config(tmp_path, command, flag):
    base = _results(tmp_path, "base", command, SMALL[command])
    assert base[0] == 0 and base[1]
    if flag == "out":
        elsewhere = tmp_path / "elsewhere"
        ignored = tmp_path / "ignored"
        path = write_cfg(tmp_path, "o.json", {**SMALL[command], "out": str(ignored)})
        assert run_cli([command, "--config", path, "--out", str(elsewhere)]) == 0
        assert sorted(p.name for p in elsewhere.iterdir()) == sorted(base[1])
        assert not ignored.exists()
    else:
        flagged = _results(tmp_path, "flagged", command, SMALL[command],
                           f"--{flag}", FLAG_VALUES[flag])
        assert flagged != base


@pytest.mark.parametrize("command, flag", [
    (c, f) for c, flags in COMMAND_FLAGS.items() for f in ALL_FLAGS
    if f not in flags])
def test_flag_outside_the_command_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, f"--{flag}", "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_no_csv_contains_a_carriage_return(tmp_path):
    runs = [(c, SMALL[c]) for c in ("converge", "wick", "wigner", "heat")] + [
        ("mc", {"experiment": "brownian", "K": 4, "n": 20, "seed": 1}),
        ("mc", {"experiment": "lattice_norm", "b": [1.0, 2.0], "eps": 1.2,
                "ladder": [1, 2], "n": 1000, "seed": 1}),
    ]
    for i, (command, cfg) in enumerate(runs):
        out = tmp_path / str(i)
        path = write_cfg(tmp_path, f"{i}.json", {**cfg, "out": str(out)})
        assert run_cli([command, "--config", path]) == 0
        (csv_file,) = out.glob("*.csv")
        text = csv_file.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, csv_file.name


# an integer is a JSON integer: a bool, a float or a string is not cast
@pytest.mark.parametrize("command, cfg, message", [
    ("wigner", {**SMALL["wigner"], "grid_points": 0}, "grid_points must be > 0"),
    ("wigner", {**SMALL["wigner"], "grid_points": -3}, "grid_points must be > 0"),
    ("wick", {**SMALL["wick"], "points": -2}, "points must be > 0"),
    ("heat", {**SMALL["heat"], "points": -2}, "points must be > 0"),
    ("heat", {**SMALL["heat"], "t": -1.0}, "t must be > 0"),
    ("heat", {**SMALL["heat"], "t": 0.0}, "t must be > 0"),
    ("quantize", {**SMALL["quantize"], "method": "weyl_classical", "oversample": 0},
     "oversample must be > 0"),
    ("mc", {**SMALL["mc"], "n": 0}, "n must be > 0"),
    ("mc", {"experiment": "brownian", "K": 4, "n": -1}, "n must be > 0"),
    ("mc", {"experiment": "brownian", "K": 0, "n": 5}, "K must be > 0"),
    ("mc", {"experiment": "lattice_norm", "b": [1.0], "eps": 1.2, "ladder": [1],
            "n": 0}, "n must be > 0"),
    ("wigner", {**SMALL["wigner"], "f": [1]}, "f must be an object, got [1]"),
    ("wigner", {**SMALL["wigner"], "g": "x"}, 'g must be an object, got "x"'),
    ("quantize", {**SMALL["quantize"], "symbol": {"family": "fourier_measure", "atoms": [
        {"weight": [1, 2, 3], "a": [0.5], "b": [0.2]}]}},
     "an atom weight must be a number or an [re, im] pair, got [1, 2, 3]"),
    ("quantize", {**SMALL["quantize"], "degree": 4.7}, "degree must be an integer, got 4.7"),
    ("quantize", {**SMALL["quantize"], "degree": True}, "degree must be an integer, got true"),
    ("quantize", {**SMALL["quantize"], "degree": "5"}, 'degree must be an integer, got "5"'),
    ("wick", {**SMALL["wick"], "points": 2.9}, "points must be an integer, got 2.9"),
    ("quantize", {**SMALL["quantize"], "symbol": {**_LATTICE_03, "m": 2.5}},
     "m must be an integer, got 2.5"),
    ("quantize", {**SMALL["quantize"], "symbol": {"family": "constant", "dim": 1.5}},
     "dim must be an integer, got 1.5"),
    ("quantize", {**SMALL["quantize"], "seed": "abc"}, 'seed must be an integer, got "abc"'),
    ("quantize", {**SMALL["quantize"], "method": "hybrid", "split": [0.0]},
     "each entry of split must be an integer, got 0.0"),
    ("wigner", {**SMALL["wigner"], "f": {"kind": "basis", "alpha": [1.0]}},
     "each entry of alpha must be an integer, got 1.0"),
    ("quantize", {**SMALL["quantize"], "h": True}, "h must be a number, got true"),
    ("quantize", {**SMALL["quantize"], "h": "0.5"}, 'h must be a number, got "0.5"'),
    ("heat", {**SMALL["heat"], "t": True}, "t must be a number, got true"),
    ("wick", {**SMALL["wick"], "radius": True}, "radius must be a number, got true"),
    ("quantize", {**SMALL["quantize"], "symbol": {"family": "fourier_measure", "atoms": [
        {"weight": [True, 1], "a": [0.5], "b": [0.2]}]}},
     "an atom weight must be a number or an [re, im] pair, got [true, 1]"),
    ("quantize", {**SMALL["quantize"], "method": "weyl_classical", "oversample": True},
     "oversample must be a number, got true"),
    ("quantize", {**SMALL["quantize"], "out": 5}, "out must be a string, got 5"),
    ("verify", {**SMALL["verify"], "filter": 5}, "filter must be a string, got 5"),
    ("mc", {**SMALL["mc"], "a": [[1]]}, "each entry of a must be a number, got [1]"),
    ("wigner", {**SMALL["wigner"], "zmax": "2"}, 'zmax must be a number, got "2"'),
    ("wigner", {**SMALL["wigner"], "f": {"kind": "coherent", "x": ["0.3"], "xi": [0.1]}},
     'each entry of x must be a number, got "0.3"'),
    ("quantize", {**SMALL["quantize"], "symbol": {**EXP_1D, "b": [False]}},
     "each entry of b must be a number, got false"),
    ("quantize", {**SMALL["quantize"], "symbol": {"family": "quadratic",
                                                  "T": [[1, 0], [0, True]], "t": 1}},
     "each entry of T must be a number, got true"),
    ("quantize", {**SMALL["quantize"], "symbol": {**_LATTICE_03, "g": [0.5, "0.3"]}},
     'each entry of g must be a number, got "0.3"'),
    ("mc", {"experiment": "lattice_norm", "b": [1.0], "eps": True, "ladder": [1],
            "n": 10}, "eps must be a number, got true"),
    ("mc", {"experiment": "lattice_norm", "b": [1.0], "eps": -1, "ladder": [1],
            "n": 10}, "eps must be > 0, got -1.0"),
    *[(command, {**SMALL[command], "out": ""}, 'out must be a non-empty path, got ""')
      for command in COMMAND_FLAGS],
], ids=["grid_points-0", "grid_points-neg", "wick-points", "heat-points", "t-neg",
        "t-0", "oversample-0", "integral-n", "brownian-n", "brownian-K",
        "lattice_norm-n", "f-list", "g-string", "weight-triple", "degree-float",
        "degree-bool", "degree-string", "points-float", "lattice-m-float",
        "constant-dim-float", "quantize-seed-string", "split-entry-float",
        "alpha-entry-float", "h-bool", "h-string", "t-bool", "radius-bool",
        "weight-bool-pair", "oversample-bool", "out-int", "filter-int",
        "integral-a-nested", "zmax-string", "x-entry-string", "b-entry-bool",
        "T-entry-bool", "g-entry-string", "eps-bool", "eps-neg",
        *[f"{command}-out-empty" for command in COMMAND_FLAGS]])
def test_out_of_range_config_values_exit_2(tmp_path, capsys, command, cfg, message):
    path = write_cfg(tmp_path, "c.json", {"out": str(tmp_path / "out"), **cfg})
    assert run_cli([command, "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    for command in COMMANDS:
        assert run_cli([command, "--config", str(path)]) == 2
        assert f"a config must be a JSON object, got {text}" in capsys.readouterr().err


@pytest.mark.parametrize("seed, want", [(-1, 2), (2**64, 2), (2**64 - 1, 0), (1.9, 2),
                                        (True, 2), ("1", 2)],
                         ids=["neg", "2^64", "2^64-1", "float", "bool", "string"])
@pytest.mark.parametrize("command", [c for c, f in COMMAND_FLAGS.items() if "seed" in f])
def test_seed_outside_uint64_exits_2(tmp_path, capsys, command, seed, want):
    # the seed keys a uint64 Philox stream; outside [0, 2^64) it is an input
    # error, not a traceback (exit 1 would read as a verify failure)
    path = write_cfg(tmp_path, "c.json", {**SMALL[command], "seed": seed,
                                          "out": str(tmp_path / "out")})
    assert run_cli([command, "--config", path]) == want
    if want == 2:
        assert "seed must be" in capsys.readouterr().err


# End-to-end checks of the paper's constructions, one config each: Mehler's
# closed form, anti-Wick positivity and contraction, the oscillatory-kernel
# oracle at its default grid against Weyl, and criterion 03's lattice and ladder
def _quantize(symbol, method, degree):
    return {"symbol": symbol, "method": method, "h": H, "degree": degree}


def _measure(weights, a, b):
    return {"family": "fourier_measure",
            "atoms": [{"weight": w, "a": x, "b": y} for w, x, y in zip(weights, a, b)]}


def _full_rank_quadratic():
    A = np.random.default_rng(3).normal(size=(6, 6))
    return {"family": "quadratic", "T": (A @ A.T / 6 + 0.1 * np.eye(6)).tolist(), "t": 0.5}


def _operator(out, summary):
    op = OperatorMatrix.from_json((out / "operator.json").read_text())
    assert op.meta["route"] == summary["route"]
    return op


def _mehler(cfg, out, summary):
    th = cfg["symbol"]["t"] * cfg["h"]
    want = ((1 - th) / (1 + th)) ** np.arange(cfg["degree"] + 1) / (1 + th)
    assert np.abs(_operator(out, summary).entries - np.diag(want)).max() < 1e-12


def _positive_contraction(cfg, out, summary):
    # the symbol takes values in (0, 1], so its anti-Wick operator is
    # Hermitian with spectrum in [0, 1]
    op = _operator(out, summary)
    M = op.entries
    assert op.basis.size == 343
    assert np.abs(M - M.conj().T).max() < 1e-12
    ev = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert ev[0] >= 0.0 and ev[-1] <= 1.0


def _matches_weyl(cfg, out, summary):
    op = _operator(out, summary)
    F = load_symbol(cfg["symbol"])
    want = weyl_matrix(F, HermiteBasis(F.dim, cfg["h"], cfg["degree"])).entries
    assert np.abs(op.entries - want).max() < 1e-10
    assert len(op.meta["grid"]) == 2 and op.meta["identity_residual"] <= 5e-6


def _closed_form_differences(cfg, out, summary):
    # each rung difference's bound is the growth of the rung bound
    assert summary["all_steps_within_bound"] is True
    assert summary["route_residual"] < 1e-12
    lines = (out / "report.csv").read_text().splitlines()
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    cv = [float(r["cv_bound"]) for r in rows]
    for r, a, b in zip(rows[1:], cv, cv[1:]):
        assert abs(float(r["diff_bound"]) - (b - a)) < 1e-12 * (b - a)


# per case: the command, its config, the route record in summary.json and
# the check on the output; the lattice's JSON bytes, real dtype, zero
# parity-odd block and norm are checked on the same matrix in test_quantize.py
_W = [[0.8, -0.3], [-0.5, 0.6], [0.2, 0.9], [-1.1, -0.2]]
_CLI_CHECKS = {
    "mehler-80": ("quantize", _quantize({"family": "quadratic", "T": np.eye(2).tolist(),
                                         "t": 0.3}, "weyl", 80),
                  {"route": "gaussian"}, _mehler),
    "antiwick-dim3": ("quantize", _quantize(_full_rank_quadratic(), "antiwick", 6),
                      {"route": "gaussian"}, _positive_contraction),
    "oracle-dim1": ("quantize", _quantize(_measure(
        _W, [[0.9], [-0.7], [0.3], [1.3]], [[-0.4], [1.1], [0.6], [-1.2]]),
        "weyl_classical", 8), {"route": "atoms", "atoms": 4}, _matches_weyl),
    "oracle-dim2": ("quantize", _quantize(_measure(
        _W, [[0.9, -0.6], [-0.7, 0.3], [0.3, 1.2], [1.3, -0.5]],
        [[-0.4, 0.5], [1.1, -0.2], [0.6, 0.8], [-1.2, 0.1]]),
        "weyl_classical", 4), {"route": "atoms", "atoms": 4}, _matches_weyl),
    "oracle-dim3": ("quantize", _quantize(_measure(
        [[0.7, -0.4], [-0.3, 0.5]], [[0.8, -0.5, 0.3], [-0.4, 1.0, -0.7]],
        [[-0.6, 0.4, 0.9], [0.5, -0.8, 0.2]]),
        "weyl_classical", 3), {"route": "atoms", "atoms": 2}, _matches_weyl),
    "lattice-4": ("quantize", _quantize(_LATTICE_03, "weyl", 4), {"route": "chain"}, None),
    "ladder-5": ("converge", {"symbol": _LATTICE_03, "h": H, "degree": 5},
                 {"rung_routes": ["chain"] * 4, "error_bar_route": "chain"},
                 _closed_form_differences),
}


@pytest.mark.parametrize("case", list(_CLI_CHECKS))
def test_construction_through_the_cli(tmp_path, case):
    command, cfg, route, check = _CLI_CHECKS[case]
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "c.json", {**cfg, "out": str(out)})
    assert run_cli([command, "--config", path]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {k: summary.get(k) for k in route} == route
    if check is not None:
        check(cfg, out, summary)
