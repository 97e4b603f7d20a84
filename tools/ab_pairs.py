#!/usr/bin/env python3
"""Paired in-process timing of two fpgrad source trees on one perfbench workload.

    python3 tools/ab_pairs.py BASE CHANGE --workload gradcheck-small --seed 1201 --rounds 25

BASE and CHANGE are source checkouts (each with `src/fpgrad`).  Both are
loaded side by side in this one process, under the package names
`fpgrad_base` and `fpgrad_change`, so they share one interpreter, one
numpy and one BLAS.  The workload's commands come from this checkout's
`perfbench/workloads.py`, with the workload seed given.  Each round runs
every command once on each tree, in alternating order (base first where
round + command is even, so each command alternates from round to round),
and times the `cli.main` call.
A pair's ratio is the change's time over the base's.

Every pair's outputs are compared: exit code, stdout, stderr and the
bytes of every file written.  Each command whose outputs differ is
listed once, with every differing output, and the timing goes on, so a
change meant to move output bits (trailing digits, say) is timed too.
The run prints the median ratio with its quartiles and how many pairs
each tree won, and exits 1 if any command's outputs differed.

These pairs share one process, so they see an interpreter and heap state
that separate runs do not.  A speed claim rests on perfbench
(`perfbench/run.py`), run in alternating pairs of fresh processes and
recorded in `BENCH_<n>.json`; this tool is a quick check while a change
is being written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def load_cli(tree: str, name: str):
    """`cli` of the fpgrad package under tree/src, imported as package `name`."""
    pkg = os.path.join(os.path.abspath(tree), "src", "fpgrad")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise SystemExit(f"ab_pairs: no fpgrad sources under {tree}")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _files(out_dir: str) -> dict:
    found = {}
    for parent, _, names in os.walk(out_dir):
        for n in names:
            path = os.path.join(parent, n)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out_dir)] = f.read()
    return found


def run(cli, argv, out_dir):
    """(seconds, outputs) of one `cli.main(argv)` call writing to out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # compared like any other output
            rc = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    return dt, {"exit code": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": _files(out_dir)}


def differences(a: dict, b: dict) -> list:
    """Every output in which a and b differ, in a fixed order."""
    found = [f"{key}: {a[key]!r} != {b[key]!r}" for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    if a["files"].keys() != b["files"].keys():
        found.append(f"files written: {sorted(a['files'])} != {sorted(b['files'])}")
    return found + [f"file {name} differs" for name in sorted(a["files"].keys() & b["files"].keys())
                    if a["files"][name] != b["files"][name]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="source tree of the base")
    p.add_argument("change", help="source tree of the change")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--rounds", type=int, default=5, help="passes over the workload's commands")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")

    sides = {"base": load_cli(args.base, "fpgrad_base"), "change": load_cli(args.change, "fpgrad_change")}
    work = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, os.path.join(work, "inputs"))
        out_dir = os.path.join(work, "out")
        for cli in sides.values():  # untimed
            run(cli, workload.warmup_argv(out_dir), out_dir)
        ratios, times, differing = [], {"base": [], "change": []}, {}
        for r in range(args.rounds):
            for d in range(workload.distinct_ops):
                command = workload.argv(d, out_dir)
                order = ("base", "change") if (r + d) % 2 == 0 else ("change", "base")
                got = {name: run(sides[name], command, out_dir) for name in order}
                diff = differences(got["base"][1], got["change"][1])
                if diff and d not in differing:
                    differing[d] = (command, diff)
                for name in sides:
                    times[name].append(got[name][0])
                ratios.append(got["change"][0] / got["base"][0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    faster = sum(x < 1.0 for x in ratios)
    for d, (command, diff) in sorted(differing.items()):
        print(f"ab_pairs: outputs differ on command {d} ({' '.join(command)}): {'; '.join(diff)}")
    print(f"ab_pairs: {args.workload} seed {args.seed}: {workload.distinct_ops} commands x "
          f"{args.rounds} rounds = {len(ratios)} pairs, "
          + (f"outputs differ on {len(differing)} commands" if differing else "outputs identical"))
    print(f"median change/base time ratio {median:.4f} (quartiles {q1:.4f}, {q3:.4f})")
    print(f"change faster in {faster} of {len(ratios)} pairs, base faster in {sum(x > 1.0 for x in ratios)}")
    print(f"median op time: base {statistics.median(times['base']):.6f} s, "
          f"change {statistics.median(times['change']):.6f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
