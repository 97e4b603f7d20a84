#!/usr/bin/env python3
"""A rerunnable mutation pass over the rules that fpgrad's result rests on.

    python3 tools/mutants.py                      # every mutant
    python3 tools/mutants.py relax-start-boundary tightened-factor
    python3 tools/mutants.py --list

A mutant replaces one exact line of a source file with another.  The
mutants run one after another, each in a fresh temporary copy of this
checkout (never in the checkout itself), as

    python -m pytest -q -x -k "not criterion_8" --ignore=tests/test_mutants.py

in that copy.  A failing test kills the mutant.  tests/test_mutants.py
is left out there: it checks that each mutant's old line is in its file,
which no mutated copy keeps, so it would kill every mutant.  The
unmutated copy runs first, and the pass stops if it fails, since every
mutant would then look killed.  Prints killed or survived for each mutant, and exits 1 if
any survived.  It exits 2 if a mutant's old line is not in its file
exactly once, so a stale list is found before anything runs.  A passing
run takes about 40 s on a 2-vCPU VM, and a killed one stops at its
first failing test.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTEST = ["-m", "pytest", "-q", "-x", "-k", "not criterion_8", "--ignore=tests/test_mutants.py",
          "-p", "no:cacheprovider"]
# a run this long has hung, which no passing suite does: the mutant is killed
TIMEOUT_S = 1800

# (name, file, exact old line, new line)
MUTANTS = [
    # the equivalence gate and its degenerate cases
    ("slope-gate-widened", "src/fpgrad/cli.py",
     '        and 0.8 <= summary["s_slope"] <= 1.2',
     '        and 0.5 <= summary["s_slope"] <= 1.5'),
    ("degenerate-floor-raised", "src/fpgrad/cli.py",
     "    return max(rep.max_s_gap, rep.max_theta_gap) <= 10.0 * tolerance / rep.beta",
     "    return max(rep.max_s_gap, rep.max_theta_gap) <= 100.0 * tolerance / rep.beta"),
    ("degenerate-floor-exclusive", "src/fpgrad/cli.py",
     "    return max(rep.max_s_gap, rep.max_theta_gap) <= 10.0 * tolerance / rep.beta",
     "    return max(rep.max_s_gap, rep.max_theta_gap) < 10.0 * tolerance / rep.beta"),
    ("zero-gap-threshold-rejected", "src/fpgrad/cli.py",
     "    if not 0 <= threshold < math.inf:",
     "    if not 0 < threshold < math.inf:"),
    ("summarize-zero-gap-kept", "src/fpgrad/equivalence.py",
     "    degenerate = any(g <= 0.0 for g in s_gaps + t_gaps) or len(set(betas)) < 2",
     "    degenerate = any(g < 0.0 for g in s_gaps + t_gaps) or len(set(betas)) < 2"),
    # second-phase tolerances
    ("tightened-factor", "src/fpgrad/eqprop.py",
     "    return replace(cfg, tolerance=min(cfg.tolerance, beta * 1e-3), record_every=0)",
     "    return replace(cfg, tolerance=min(cfg.tolerance, beta * 1e-2), record_every=0)"),
    ("nudged-warning-threshold", "src/fpgrad/dynamics.py",
     "    if beta > 0 and cfg.tolerance > beta * 1e-3:",
     "    if beta > 0 and cfg.tolerance > beta * 1e-4:"),
    ("nudged-warning-boundary", "src/fpgrad/dynamics.py",
     "    if beta > 0 and cfg.tolerance > beta * 1e-3:",
     "    if beta > 0 and cfg.tolerance >= beta * 1e-3:"),
    # the free phase that an estimate reports
    ("stacked-betas-unsorted", "src/fpgrad/eqprop.py",
     "    _, _, s_free = second_phase(theta, x, act, cfg, sorted(betas, reverse=True), s_free)",
     "    _, _, s_free = second_phase(theta, x, act, cfg, betas, s_free)"),
    ("gradcheck-oracle-from-zero", "src/fpgrad/cli.py",
     "    reference = oracle.fd_objective_gradient(theta, x, y, act, rcfg, fd, estimates[0].free_point)",
     "    reference = oracle.fd_objective_gradient(theta, x, y, act, rcfg, fd, None)"),
    # the free phase's Newton finish
    ("cg-curvature-unguarded", "src/fpgrad/model.py",
     "            if not curvature > 0:",
     "            if False:"),
    ("newton-decrease-unchecked", "src/fpgrad/eqprop.py",
     "            if ops.residual < residual:",
     "            if True:"),
    ("newton-finish-boundary", "src/fpgrad/eqprop.py",
     "_SWITCH, _FINISH_BELOW = 1e-3, 1e-9",
     "_SWITCH, _FINISH_BELOW = 1e-3, 1e-8"),
    ("newton-finish-exclusive", "src/fpgrad/eqprop.py",
     "    finish = act.d2f is not None and cfg.tolerance <= _FINISH_BELOW",
     "    finish = act.d2f is not None and cfg.tolerance < _FINISH_BELOW"),
    # the chord steps of the near-equilibrium stacks; the halving test
    # weakened to a plain decrease, since a chord kept without any test
    # would never stop at the rounding floor
    ("chord-halving-dropped", "src/fpgrad/dynamics.py",
     "        if not r <= 0.5 * residual:",
     "        if not r < residual:"),
    ("chord-cholesky-ungated", "src/fpgrad/dynamics.py",
     "    if hessian is not None and _positive_definite(hessian):",
     "    if hessian is not None:"),
    ("oracle-chord-cold", "src/fpgrad/oracle.py",
     "    hessian = dynamics.fd_hessian(theta, x, s0, act) if fd.warm_start else None",
     "    hessian = dynamics.fd_hessian(theta, x, s0, act)"),
    # stopping rules at their boundary
    ("relax-start-boundary", "src/fpgrad/dynamics.py",
     "    if residual <= cfg.tolerance:",
     "    if residual < cfg.tolerance:"),
    ("relax-step-boundary", "src/fpgrad/dynamics.py",
     "        if residual <= tol or k == last:",
     "        if residual < tol or k == last:"),
    ("relax-columns-boundary", "src/fpgrad/dynamics.py",
     "        done = col <= tol  # never for a NaN, which then diverges",
     "        done = col < tol  # never for a NaN, which then diverges"),
    # the side process
    ("side-sum-past-n", "src/fpgrad/rbp.py",
     "        for s_bar, _, _ in islice(steps, n_steps):",
     "        for s_bar, _, _ in islice(steps, n_steps + 1):"),
    ("instability-patience-1000", "src/fpgrad/rbp.py",
     "_INSTABILITY_PATIENCE = 100",
     "_INSTABILITY_PATIENCE = 1000"),
    ("instability-patience-boundary", "src/fpgrad/rbp.py",
     "            if rising >= _INSTABILITY_PATIENCE:",
     "            if rising > _INSTABILITY_PATIENCE:"),
    # the side process's dense Hessian and the bound that selects it
    ("dense-bound-flipped", "src/fpgrad/rbp.py",
     "            self._apply_ss = ops.dense_ss().dot if ops.bounds[-1] <= _DENSE_STATES else ops.apply_ss",
     "            self._apply_ss = ops.dense_ss().dot if ops.bounds[-1] > _DENSE_STATES else ops.apply_ss"),
    ("dense-bound-exclusive", "src/fpgrad/rbp.py",
     "            self._apply_ss = ops.dense_ss().dot if ops.bounds[-1] <= _DENSE_STATES else ops.apply_ss",
     "            self._apply_ss = ops.dense_ss().dot if ops.bounds[-1] < _DENSE_STATES else ops.apply_ss"),
    ("dense-block-untransposed", "src/fpgrad/model.py",
     "            h[cols, rows] = block.T",
     "            h[cols, rows] = block"),
    ("dense-d2-drive-dropped", "src/fpgrad/model.py",
     "        np.fill_diagonal(h, 1.0 - self.d2_drive)",
     "        np.fill_diagonal(h, 1.0)"),
    # the hot kernels: the curvature product, the Euler loop's residual, the nudge
    ("apply-ss-coupling-added", "src/fpgrad/model.py",
     "            h[rows] -= d1 * coupling",
     "            h[rows] += d1 * coupling"),
    ("flow-residual-first-entry", "src/fpgrad/dynamics.py",
     "                residual = a.item(a.argmax())",
     "                residual = a.item(0)"),
    ("force-nudge-reversed", "src/fpgrad/model.py",
     "            g[:n] += self.beta * (s[:n] - self.y)",
     "            g[:n] -= self.beta * (s[:n] - self.y)"),
    # the certified theta gap
    ("block-margin-zero", "src/fpgrad/equivalence.py",
     "_CERTIFIED_ROWS, _MARGIN, _TINY = 16, 1e-12, 16 * np.nextafter(0.0, 1.0)",
     "_CERTIFIED_ROWS, _MARGIN, _TINY = 16, 0.0, 16 * np.nextafter(0.0, 1.0)"),
    ("one-column-block-certified", "src/fpgrad/equivalence.py",
     "    if m <= top or right.shape[2] == 1:",
     "    if m <= top:"),
    ("theta-bound-beta-dropped", "src/fpgrad/equivalence.py",
     "        bound = (mu[..., :-1] * fixed[1:] + fixed[:-1] * mu[..., 1:]) + md[..., :-1] / betas * md[..., 1:]",
     "        bound = (mu[..., :-1] * fixed[1:] + fixed[:-1] * mu[..., 1:]) + md[..., :-1] * md[..., 1:]"),
    ("small-blocks-hold-strict", "src/fpgrad/equivalence.py",
     "    held = (bound == 0) | (wide <= top[:, None]) & (top[:, None] < np.inf) | small",
     "    held = (bound == 0) | (wide < top[:, None]) & (top[:, None] < np.inf) | small"),
    ("small-blocks-hold-unguarded", "src/fpgrad/equivalence.py",
     "    held = (bound == 0) | (wide <= top[:, None]) & (top[:, None] < np.inf) | small",
     "    held = (bound == 0) | (wide <= top[:, None]) | small"),
    # training's classification threshold
    ("correct-threshold-exclusive", "src/fpgrad/training.py",
     "        return bool((pred[0] >= 0.5) == (y[0] >= 0.5))",
     "        return bool((pred[0] > 0.5) == (y[0] >= 0.5))"),
    # the config contract
    ("config-read-skipped", "src/fpgrad/cli.py",
     "        _put(cfg, key, value if value is None and default is None else _read(value, kind, key))",
     "        _put(cfg, key, value)"),
    ("beta-flag-last-value", "src/fpgrad/cli.py",
     '        cfg["method"]["beta"] = cfg["method"]["betas"][0]',
     '        cfg["method"]["beta"] = cfg["method"]["betas"][-1]'),
    ("list-flag-unsplit", "src/fpgrad/cli.py",
     '            value = flags[flag].split(",") if isinstance(kind, list) else flags[flag]',
     '            value = flags[flag]'),
]


def _lines(path: str) -> list:
    with open(path) as f:
        return f.read().split("\n")


def check(mutants) -> list:
    """The problems of the mutant list against this checkout, if any."""
    problems = []
    for name, path, old, _ in mutants:
        count = _lines(os.path.join(ROOT, path)).count(old)
        if count != 1:
            problems.append(f"{name}: its line is in {path} {count} times, not once")
    return problems


def run(mutant=None) -> tuple:
    """(passed, seconds) of the test suite in a fresh copy of the
    checkout, with `mutant` (name, file, old, new) applied."""
    with tempfile.TemporaryDirectory(prefix="fpgrad-mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if mutant is not None:
            _, path, old, new = mutant
            lines = _lines(os.path.join(tree, path))
            lines[lines.index(old)] = new
            with open(os.path.join(tree, path), "w") as f:
                f.write("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - t0
        return proc.returncode == 0, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    p.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = p.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        p.error(f"unknown mutant(s) {unknown}; see --list")
    chosen = [known[n] for n in args.names] or MUTANTS
    problems = check(chosen)
    for problem in problems:
        print(f"mutants: {problem}", file=sys.stderr)
    if problems:
        return 2
    if args.list:
        for name, path, old, new in chosen:
            print(f"{name}  {path}\n    - {old.strip()}\n    + {new.strip()}")
        return 0
    passed, seconds = run()
    print(f"unmutated: {'passed' if passed else 'FAILED'} ({seconds:.0f} s)", flush=True)
    if not passed:
        return 2
    survivors = []
    for mutant in chosen:
        passed, seconds = run(mutant)
        print(f"{mutant[0]}: {'survived' if passed else 'killed'} ({seconds:.0f} s)", flush=True)
        if passed:
            survivors.append(mutant[0])
    print(f"mutants: {len(chosen) - len(survivors)} of {len(chosen)} killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
