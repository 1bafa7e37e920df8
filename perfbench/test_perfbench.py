"""Tests of the benchmark itself: its reference, its inputs and its tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import filecmp
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from reference import displacement  # noqa: E402
from workloads import WORKLOADS, Request, generate  # noqa: E402

LOW, BIG = 8, 80


@pytest.mark.parametrize("alpha,beta", [(0.7 - 0.2j, -0.3 + 0.9j),
                                        (1.1j, 0.5), (-0.4 - 0.6j, 0.8 + 0.1j)])
def test_displacement_composition_law(alpha, beta):
    """D(a) D(b) = e^{i Im(a conj b)} D(a + b) on a low block of a big truncation."""
    lhs = (displacement(alpha, BIG) @ displacement(beta, BIG))[:LOW, :LOW]
    phase = np.exp(1j * (alpha * np.conj(beta)).imag)
    rhs = phase * displacement(alpha + beta, BIG)[:LOW, :LOW]
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.8 - 0.3j, 1.5j])
def test_displacement_is_unitary(alpha):
    D = displacement(alpha, BIG)
    assert np.abs((D.conj().T @ D)[:LOW, :LOW] - np.eye(LOW)).max() < 1e-12
    assert np.abs(displacement(-alpha, BIG) - D.conj().T).max() < 1e-12


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_configs(workload):
    a, b, c = generate(workload, 7), generate(workload, 7), generate(workload, 8)
    assert [(r.command, r.config) for r in a] == [(r.command, r.config) for r in b]
    assert [r.config for r in a] != [r.config for r in c]
    fixed_a = [(r.command, r.config) for r in a if r.fixed]
    assert fixed_a == [(r.command, r.config) for r in c if r.fixed]


def _small_mix():
    """A few cheap requests that reach every traced layer but the oracle."""
    lattice = {"family": "lattice", "g": [0.5, 0.4, 0.3], "t": 1.0, "V": "cos"}
    exp1 = {"family": "exponential", "a": [0.9], "b": [-0.4]}
    return [
        Request("quantize", {"symbol": exp1, "method": "weyl", "h": 0.5,
                             "degree": 10}, "fourier"),
        Request("quantize", {"symbol": exp1, "method": "antiwick", "h": 0.5,
                             "degree": 10}, "fourier"),
        Request("converge", {"symbol": lattice, "h": 0.5, "degree": 2}, "ladder"),
        Request("wick", {"symbol": exp1, "h": 0.5, "degree": 12, "points": 5,
                         "seed": 3}, "wick"),
    ]


def _run_mix(requests, out_root, tracer=None):
    import json

    import checks
    import run
    from gweyl.cli import main

    run.reset_caches()
    os.makedirs(out_root)
    for i, req in enumerate(requests):
        out = os.path.join(out_root, f"{i:03d}")
        path = os.path.join(out_root, f"{i:03d}.json")
        with open(path, "w") as fh:
            json.dump(dict(req.config, out=out), fh)
        code, _ = run.run_request(main, [req.command, "--config", path], tracer, i)
        assert code == 0
        if tracer is not None:
            tracer.active = False
        assert checks.check(req, out) == []
        if tracer is not None:
            tracer.active = True


def _namespaces():
    import gweyl.cli
    import gweyl.quantize

    mods = {n: m for n, m in sys.modules.items() if n.startswith("gweyl")}
    snap = {n: dict(vars(m)) for n, m in mods.items()}
    snap["COMMANDS"] = dict(gweyl.cli.COMMANDS)
    snap["to_json"] = vars(gweyl.quantize.OperatorMatrix)["to_json"]
    return snap


def test_trace_restores_and_matches_untraced_outputs(tmp_path):
    from tracing import Tracer

    requests = _small_mix()
    _run_mix(requests, str(tmp_path / "plain"))
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        assert _namespaces() != before
        _run_mix(requests, str(tmp_path / "traced"), tracer)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, snap in before.items():
        if isinstance(snap, dict):
            assert after[key].keys() == snap.keys(), key
            for name, val in snap.items():
                assert after[key][name] is val, (key, name)
        else:
            assert after[key] is snap, key
    for i in range(len(requests)):
        plain, traced = tmp_path / "plain" / f"{i:03d}", tmp_path / "traced" / f"{i:03d}"
        names = sorted(os.listdir(plain))
        assert names == sorted(os.listdir(traced))
        match, mismatch, errors = filecmp.cmpfiles(plain, traced, names, shallow=False)
        assert mismatch == [] and errors == []
    for layer in ("quantize.hybrid_matrix", "quantize.operator_norm",
                  "quantize._chain_site_table", "kernels.chain_contract",
                  "heat.op_T_I", "heat.heat_full", "cli.cmd_converge",
                  "cli.output", "kernels.wigner_pair_table",
                  "kernels.bargmann_pair_table", "gaussian.tensor_rule"):
        assert tracer.calls.get(layer, 0) > 0, layer
    assert tracer.counts["cli.output.bytes"] > 0
    assert tracer.counts["quantize.site_table_cache.misses"] > 0
    assert tracer.counts["quantize.site_table_cache.hits"] > 0
    assert all(end is not None for *_, end in tracer.spans)


@pytest.mark.parametrize("method", ["weyl", "antiwick"])
def test_checks_catch_a_wrong_kernel_sign(tmp_path, monkeypatch, method):
    """With the symmetric-kernel sign flipped, the closed-form check fails."""
    import json

    import checks
    import gweyl.quantize
    import run
    from gweyl.cli import main

    monkeypatch.setattr(gweyl.quantize, "_MUTATE_TABLE_SIGN", -1.0)
    symbol = {"family": "exponential", "a": [0.9], "b": [-0.4]}
    req = Request("quantize", {"symbol": symbol, "method": method, "h": 0.5,
                               "degree": 10}, "fourier")
    out = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(req.config, out=out)))
    run.reset_caches()
    code, _ = run.run_request(main, ["quantize", "--config", str(path)], None, 0)
    assert code == 0
    assert checks.check(req, out) != []


def test_only_fixed_requests_may_fail(tmp_path):
    import run

    requests = [Request("quantize", {"degree": 3}, "fourier"),
                Request("quantize", {"degree": 10}, "fourier", fixed=True)]
    problems, _ = run.check_round(requests, [(3, 0.5), (3, 0.5)],
                                  str(tmp_path), None)
    assert len(problems) == 1 and problems[0].startswith("request 0 ")
