"""Mutation check: every mutant of the library must fail its targeted tests.

Each mutant is one text replacement in one file under ``src/``.  For each,
the source tree is copied to a temporary directory, the replacement applied
there, and the mutant's tests run against the copy (``PYTHONPATH`` points at
it), so no mutation hook lives in the library.  The script exits 1 if a
mutant's target text is missing or occurs more than once, if a mutant
survives (its tests pass), or if the tests fail on the unmutated copy.  Run
from anywhere:

    python3 tools/mutants.py             # every mutant
    python3 tools/mutants.py chain-sigma # the named ones

Add a mutant with each new check.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/gweyl, target text, replacement, tests)
MUTANTS = {
    "gaussian-b-sign": (
        "quantize.py",
        "np.block([[1j * I, 1j * I], [-I, I]])",
        "np.block([[1j * I, 1j * I], [I, -I]])",
        ["tests/test_routes.py"],
    ),
    "gaussian-r-sign": (
        "quantize.py",
        "R = np.block([[O, I], [I, O]]) + B.T",
        "R = np.block([[O, I], [I, O]]) - B.T",
        ["tests/test_cli.py::test_construction_through_the_cli[mehler-80]",
         "tests/test_cli.py::test_construction_through_the_cli[antiwick-dim3]",
         "tests/test_routes.py"],
    ),
    "gaussian-t-i-sign": (
        "heat.py",
        "((-1.0) ** len(J) * amp, A)",
        "(amp, A)",
        ["tests/test_heat.py::test_op_T_I_gaussian_is_inclusion_exclusion_of_smoothings",
         "tests/test_quantize.py::test_gaussian_ladder_coupled_3_sites_stays_closed_form",
         "tests/test_routes.py"],
    ),
    "chain-t-i-sign": (
        "symbols.py",
        "sm = tuple(replace(e, coef=-e.coef) for e in smoothed)",
        "sm = tuple(smoothed)",
        ["tests/test_cli.py::test_construction_through_the_cli[ladder-5]",
         "tests/test_routes.py"],
    ),
    "tail-without-square": (
        "quantize.py",
        "if j not in lam]] ** 2))",
        "if j not in lam]]))",
        ["tests/test_quantize.py::test_ladder_diff_bound_is_fresh_subset_sum"],
    ),
    "diff-bound-fresh-sum": (
        "quantize.py",
        "steps[-1].cv_bound * math.expm1(np.sum(np.log1p(x[fresh])))",
        "steps[-1].cv_bound * np.sum(x[fresh])",
        ["tests/test_quantize.py::test_ladder_diff_bound_is_fresh_subset_sum"],
    ),
    "chain-sigma": (
        "quantize.py",
        "sigma = 1.0 - 2.0 * (basis.indices.sum(axis=1) // 2 % 2)",
        "sigma = 1.0 - 0.0 * (basis.indices.sum(axis=1) // 2 % 2)",
        ["tests/test_routes.py"],
    ),
    "chain-kl-transpose": (
        "_kernels.py",
        "for kl in (0, 1) for j in range(D - 1)]",
        "for kl in (1, 0) for j in range(D - 1)]",
        ["tests/test_quantize.py::test_chain_contract_matches_brute_force",
         "tests/test_routes.py"],
    ),
    "chain-close-axis": (
        "_kernels.py",
        "k, l = divmod(r, d)",
        "l, k = divmod(r, d)",
        ["tests/test_quantize.py::test_chain_contract_matches_brute_force",
         "tests/test_routes.py"],
    ),
    "lanczos-signed-top": (
        "quantize.py",
        "top = np.argmax(np.abs(theta))",
        "top = np.argmax(theta)",
        ["tests/test_quantize.py::test_operator_norm_hermitian_branches_are_exact"
         "[lanczos-negative-top]"],
    ),
    "hermite-no-newton": (
        "gaussian.py",
        "t[todo] = x - step",
        "t[todo] = x",
        ["tests/test_gaussian.py::test_hermite_roots_agree_with_scipy_roots_hermite"],
    ),
    "christoffel-weight": (
        "gaussian.py",
        "log_w[todo] = -2.0 * (np.log(np.abs(prev)) + log_s - 2.0 * x * step)",
        "log_w[todo] = -(np.log(np.abs(prev)) + log_s - 2.0 * x * step)",
        ["tests/test_gaussian.py::test_hermite_roots_agree_with_scipy_roots_hermite"],
    ),
    "hermite-weight-unmoved": (
        "gaussian.py",
        "+ log_s - 2.0 * x * step)",
        "+ log_s)",
        ["tests/test_gaussian.py::test_hermite_roots_agree_with_scipy_roots_hermite",
         "tests/test_gaussian.py::test_hermite_roots_at_high_order_stay_in_linear_memory"],
    ),
    "hermite-loose-newton": (
        "gaussian.py",
        "todo = todo[np.abs(step) > 1e-8 / math.sqrt(order)]",
        "todo = todo[np.abs(step) > 1e-5 / math.sqrt(order)]",
        ["tests/test_gaussian.py::test_hermite_roots_agree_with_scipy_roots_hermite",
         "tests/test_gaussian.py::test_hermite_roots_at_high_order_stay_in_linear_memory"],
    ),
    "bessel-normalisation": (
        "symbols.py",
        "r[0] + 2.0 * r[1:].sum()",
        "r[0] + r[1:].sum()",
        ["tests/test_symbols.py::test_bessel_series_stops_on_the_tolerance"],
    ),
    "atom-damping": (
        "quantize.py",
        "c = c * np.exp(-0.5 * (a**2 + b**2) @ v)",
        "c = c * np.exp(-0.49 * (a**2 + b**2) @ v)",
        ["tests/test_quantize.py::test_weyl_exponential_matches_oracle_at_high_degree",
         "tests/test_routes.py"],
    ),
    # a damping 2e-5 off in relative terms: only a check at the routes'
    # rounding level sees it
    "atom-damping-tight": (
        "quantize.py",
        "c = c * np.exp(-0.5 * (a**2 + b**2) @ v)",
        "c = c * np.exp(-0.50001 * (a**2 + b**2) @ v)",
        ["tests/test_routes.py"],
    ),
    "classical-phase-conj": (
        "quantize.py",
        "phase[P:, :nx - 1] = Q[:, :0:-1].conj()",
        "phase[P:, :nx - 1] = Q[:, :0:-1]",
        ["tests/test_quantize.py::test_classical_factored_kernel_matches_xi_loop",
         "tests/test_routes.py"],
    ),
    "classical-toeplitz-rows": (
        "quantize.py",
        "sliding_window_view(V, nx, axis=1)[..., ::-1]",
        "sliding_window_view(V, nx, axis=1)",
        ["tests/test_routes.py"],
    ),
    # the oracle's route record; hybrid_matrix writes the same line
    "classical-no-route": (
        "quantize.py",
        'meta.update(route="atoms", atoms=int(c.size))\n    if D == 1:',
        'meta.update(atoms=int(c.size))\n    if D == 1:',
        [*(f"tests/test_cli.py::test_construction_through_the_cli[oracle-dim{d}]"
           for d in (1, 2, 3)), "tests/test_routes.py"],
    ),
    "chain-no-route": (
        "quantize.py",
        'meta.update(route="chain", order=q)',
        "meta.update(order=q)",
        ["tests/test_cli.py::test_construction_through_the_cli[lattice-4]",
         "tests/test_cli.py::test_construction_through_the_cli[ladder-5]",
         "tests/test_routes.py"],
    ),
}


def run_tests(tests, mutant=None) -> int:
    """pytest's exit code for ``tests`` on a copy of src/, with ``mutant`` applied.

    A target text that is not in its file exactly once gives -1.
    """
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path, target, replacement, _ = mutant
            source = src / "gweyl" / path
            text = source.read_text()
            if text.count(target) != 1:
                return -1
            source.write_text(text.replace(target, replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        print(proc.stdout[-2000:])
    return proc.returncode


def main(argv) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}")
        return 2
    tests = sorted({t for n in names for t in MUTANTS[n][3]})
    code = run_tests(tests)
    print(f"unmutated: pytest exited {code}", flush=True)
    if code != 0:
        return 1
    failed = 0
    for name in names:
        code = run_tests(MUTANTS[name][3], MUTANTS[name])
        # exit 1: a test failed, so the mutant is killed
        verdict = {-1: "target text not found exactly once", 0: "survived",
                   1: "killed"}.get(code, f"pytest exited {code}")
        print(f"{name}: {verdict}", flush=True)
        failed += code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
