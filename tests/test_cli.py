import json
import math
import os

import numpy as np
import pytest

from gweyl import HermiteBasis, make_exponential
from gweyl.cli import main
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
    ]:
        payload["out"] = str(tmp_path / "out")
        assert run_cli([command, "--config", write_cfg(tmp_path, name, payload)]) == 2


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


def test_converge_lattice(tmp_path):
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
