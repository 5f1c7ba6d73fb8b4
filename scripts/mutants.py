#!/usr/bin/env python3
"""Mutation check of the certificate path, stdlib only.

Each entry of MUTANTS names one exact text in one source file, its
replacement, and the test files expected to kill it.  The script copies
the repository's sources, tests and scripts to a temporary directory
once and first runs every mapped test file there unmutated, which must
pass; then for each mutant it writes the mutated file, runs only the
mapped test files under ``pytest -x`` (hypothesis seed 0, no bytecode
written, so every run compiles the file it reads) and puts the file
back.  A mutant is killed when pytest reports a failed test (exit 1).
NOT_RUN lists the mutants no test can kill, each with its reason; their
texts are still looked up, so the list cannot go stale.

    python scripts/mutants.py

Exits 1 when the unmutated tests fail, when a mutant survives, when
pytest cannot run its tests, or when a listed text is not found exactly
once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
LIFTING, CLI, CUBE = "src/pathlift/lifting.py", "src/pathlift/cli.py", "src/pathlift/cube.py"

# (name, file, old text, new text, test files expected to kill it)
MUTANTS = [
    # the relift drift, its budget, and the decay budgets of lift_path
    ("relift-midpoint-left-end-only", LIFTING,
     "if moved[j + 1] or moved[k + 1]:", "if moved[j + 1]:", ["tests/test_lifting.py"]),
    ("relift-midpoint-at-one-third", LIFTING,
     "seg._at(1, 2)", "seg._at(1, 3)", ["tests/test_lifting.py"]),
    ("relift-keep-without-neighbours", LIFTING,
     "any(moved[j : j + 3])", "moved[j + 1]", ["tests/test_lifting.py"]),
    ("relift-cross-multiplication-swapped", LIFTING,
     "x * bd != y * hd", "x * hd != y * bd", ["tests/test_lifting.py"]),
    ("refined-grid-without-plus-one", LIFTING,
     "math.floor(1 / eps) + 1 if", "math.floor(1 / eps) if", ["tests/test_golden.py"]),
    ("decay-budget-same-round", LIFTING,
     "5 * (eps[n] + eps[n + 1])", "5 * (eps[n] + eps[n])", ["tests/test_lifting.py"]),
    ("approximation-grid-halved", LIFTING,
     "math.ceil(2 * alpha.lipschitz / eps)", "math.ceil(alpha.lipschitz / eps)",
     ["tests/test_lifting.py"]),
    # segment lifts, the sampled path's modulus check and screen, verify_lift's continuity
    ("breakpoint-ticks-not-strict", LIFTING,
     "if any(lo >= hi for lo, hi in", "if any(lo > hi for lo, hi in", ["tests/test_cli.py"]),
    ("transfer-walk-strict", LIFTING,
     "elif rest >= right - left:", "elif rest > right - left:", ["tests/test_golden.py"]),
    ("tv-screen-factor-four", LIFTING,
     "bound_num * 2 * near.den", "bound_num * 4 * near.den", ["tests/test_lifting.py"]),
    ("modulus-check-factor-four", LIFTING,
     "(hi - lo) * 2 * a.den", "(hi - lo) * 4 * a.den", ["tests/test_lifting.py"]),
    ("modulus-check-whole-interval", LIFTING,
     "ln * (hi - lo) * 2", "ln * den * 2", ["tests/test_lifting.py"]),
    ("verify-interval-index", LIFTING,
     "lift._piece(lo, den)", "lift._piece(hi, den)", ["tests/test_lifting.py"]),
    # the endpoint checks of lift_polygonal and verify_lift
    ("lift-left-endpoint-unchecked", LIFTING,
     "if law(x_start) != beta.vertices[0]:", "if False:", ["tests/test_lifting.py"]),
    ("lift-right-endpoint-unchecked", LIFTING,
     "if law(x_end) != beta.vertices[-1]:", "if False:", ["tests/test_lifting.py"]),
    ("verify-endpoint-variables-by-law", LIFTING,
     "(values[0] == endpoints[0], values[-1] == endpoints[1])",
     "(laws[0] == law(endpoints[0]), laws[-1] == law(endpoints[1]))", ["tests/test_cli.py"]),
    ("verify-right-endpoint-law-at-zero", LIFTING,
     "laws[-1] == target.eval(ONE)", "laws[-1] == target.eval(ZERO)", ["tests/test_cli.py"]),
    ("kyfan-mass-invariant-off", "src/pathlift/randomvars.py",
     "or sum(masses) != den:", "and False:", ["tests/test_randomvars.py"]),
    # the exit-code decision of lift, relift and verify at its bound
    ("lift-decay-double-budget", CLI,
     "all(d <= b for d, b in", "all(d <= 2 * b for d, b in", ["tests/test_cli.py"]),
    ("relift-six-eps", CLI, "drift <= 5 * eps", "drift <= 6 * eps", ["tests/test_cli.py"]),
    ("verify-double-tol", CLI,
     "ok = cert.max_law_gap <= tol and", "ok = cert.max_law_gap <= 2 * tol and",
     ["tests/test_cli.py"]),
    # the subset oracle's prune, and the exit when the two Prokhorov routes disagree
    ("subsets-prune-double-best", "src/pathlift/prokhorov.py",
     "if excess <= best:", "if excess <= 2 * best:", ["tests/test_prokhorov.py"]),
    ("prokhorov-oracle-guard-off", CLI, "if oracle != value:", "if False:", ["tests/test_cli.py"]),
    # the cube's law check: its exit code, and the prefix mixtures it compares with
    ("cube-exit-ignores-law-gap", CLI,
     "return 3 if any(gaps) else 0", "return 0", ["tests/test_cli.py"]),
    ("cube-mix-toward-previous-corner", CUBE,
     "self.corners[len(prefix)]", "self.corners[len(prefix) - 1]",
     ["tests/test_cube.py"]),
    # the cube's rho rules: 0 past a later coordinate 1, rho_apart past later 0s
    ("cube-zero-rule-on-a-later-zero", CUBE,
     "ZERO if per_axis - 1 in rest", "ZERO if 0 in rest", ["tests/test_cube.py"]),
    ("cube-closed-form-one-cell-too-narrow", CUBE,
     ".rho_apart(1, per_axis - 1)", ".rho_apart(1, per_axis)", ["tests/test_cube.py"]),
]

# (name, file, old text, new text, why no test can kill it)
NOT_RUN = [
    ("upward-infimum-strict", "src/pathlift/prokhorov.py",
     "if hi is None or cand <= hi:\n            if best is None or cand < best:",
     "if hi is None or cand < hi:\n            if best is None or cand < best:",
     "equivalent: the values are nonincreasing, so the next interval yields the same infimum"),
    ("coupling-scan-exit-strict", "src/pathlift/prokhorov.py",
     "if best is not None and lo >= best[0]:", "if best is not None and lo > best[0]:",
     "equivalent: one more interval is scanned, and it cannot beat the best"),
    ("witness-attainment-guard-off", "src/pathlift/prokhorov.py",
     "if attained != value:", "if False:",
     "a guard no valid input triggers: the witness always attains the optimum"),
]


def holds_once(path: Path, old: str) -> str:
    """The text of path, which must hold old exactly once."""
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"error: {path} holds {old!r} {text.count(old)} times, not once")
    return text


def pytest(work: Path, env: dict, tests: list[str]) -> subprocess.CompletedProcess:
    """Run the test files in work under ``pytest -x``, hypothesis seed 0."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=work, env=env, capture_output=True, text=True,
    )


def run_mutant(work: Path, env: dict, mutant: tuple) -> str:
    """The verdict of one mutant: killed, SURVIVED, or ERROR."""
    _, file, old, new, tests = mutant
    path = work / file
    original = holds_once(path, old)
    path.write_text(original.replace(old, new), encoding="utf-8")
    try:
        run = pytest(work, env, tests)
    finally:
        path.write_text(original, encoding="utf-8")
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "SURVIVED"
    print(run.stdout[-2000:] + run.stderr[-2000:], file=sys.stderr)
    return f"ERROR (pytest exit {run.returncode})"


def main() -> int:
    for name, file, old, _, reason in NOT_RUN:
        holds_once(ROOT / file, old)
        print(f"{'not run':<10} {name}: {reason}")
    failed, began = [], time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, work / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / part, work / part)
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        clean = pytest(work, env, sorted({test for *_, tests in MUTANTS for test in tests}))
        print(f"{'passed' if clean.returncode == 0 else 'FAILED':<10} unmutated "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
        if clean.returncode != 0:
            print(clean.stdout[-2000:] + clean.stderr[-2000:], file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdict = run_mutant(work, env, mutant)
            print(f"{verdict:<10} {mutant[0]} ({time.perf_counter() - start:.1f} s)", flush=True)
            if verdict != "killed":
                failed.append(mutant[0])
    print(f"{len(failed)} not killed, {time.perf_counter() - began:.0f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
