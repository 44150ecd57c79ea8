#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload a9_labels \
        [--workload prob_maps ...] --pairs 10

PARENT and CHANGE are the roots of two checkouts of the repository. Each
pair runs ``perfbench/run.py --trace 0`` once in each of them, from its
own root, and swaps which side runs first from one pair to the next, so
slow drift of the host lands on both sides alike. The workloads run one
after the other, all pairs of each. For each workload and each end-to-end
metric that ``BENCHMARK.json`` of CHANGE names, it then prints a table
titled with the host's ``FileHugePages`` (the page cache held in huge
pages, from ``/proc/meminfo`` where that exists: the peak RSS of a call
that maps its inputs depends on it) and listing both
medians, the parent's quartiles, in how many of the pairs the change was
better (ties count for neither side) and a verdict, and at the end every
failed call or run. With ``bound`` the metric's fraction of the parent
median in ``BENCHMARK.json``, the verdict is the first that holds of:

- ``worse``: the change median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's quartile spread exceeds the bound, and not
  every change run beats every parent run;
- ``better``: the change won at least 9 in 10 pairs, and the medians
  differ by more than the parent's quartile spread;
- ``held``: none of these.

Below the end-to-end metrics, each table also lists the per-call medians
that ``perfbench/run.py`` prints beside them (``simulate_s``,
``correlate_s``, ``group_s``, for the workloads that make such calls).
Each is a median wall time of one kind of call, like ``metrics_s``, so it
is judged with the bound of ``metrics_s`` and the same rules.

After the workloads, it times ``IMPORT_STARTS`` fresh interpreters that
run ``import segqc.cli`` in each checkout, with ``PYTHONPATH`` set to
that checkout's ``src``: one warm-up start a side, then the two sides in
alternating pairs. They print as an ``import_s`` row, with the bound of
``setup_s`` and the same verdict rules; a start that fails is a failed call.

A run that has not ended ``SETUP_S`` seconds past three times
``--seconds`` is stopped and counted as failed. It changes nothing in
either checkout beyond what the benchmark itself caches, and uses the
standard library only. The exit code is 1 when any run or call failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

# a per-call median line of ``perfbench/run.py``: "<kind>_s <median> s n=<calls>"
PER_CALL = re.compile(r"(\w+_s) +([-+.\deE]+) s +n=\d+")
SETUP_S = 600  # building a workload's inputs on a cold cache, with room to spare
IMPORT_STARTS = 40  # timed fresh ``import segqc.cli`` starts a side


def run_once(root: Path, workload: str, args) -> tuple[dict | None, list[str]]:
    """Metric values of one benchmark run in ``root``, its per-call
    medians among them, and its failures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    # each run imports the sources of its own checkout only
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    limit = SETUP_S + 3 * args.seconds
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the runner unwinds on SIGTERM and stops its children
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return None, [f"run timed out after {limit:g} s"]
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, [f"exit {proc.returncode} without a result line: {err.strip()[-300:]}"]
    problems = [line for line in lines if line.startswith("FAILED ")]
    if proc.returncode:
        problems.append(f"exit {proc.returncode}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for match in filter(None, map(PER_CALL.fullmatch, lines)):
        values.setdefault(match[1], float(match[2]))
    return values, problems


def verdict(parent, change, spread: float, wins: int, better: str, bound: float) -> str:
    """``worse``, ``unresolved``, ``better`` or ``held``, as defined above;
    ``spread`` is the distance between the parent's quartiles."""
    lower = better == "lower"
    base = statistics.median(parent)
    gap = (statistics.median(change) - base) * (1.0 if lower else -1.0)  # > 0: change worse
    if gap > bound * abs(base):
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound * abs(base) and not beats_all:
        return "unresolved"
    if 10 * wins >= 9 * len(parent) and -gap > spread:
        return "better"
    return "held"


def print_table(title: str, rows: dict) -> None:
    """One table of medians and verdicts: per metric name, its
    ``(parent, change)`` value pairs, its ``better`` and its bound."""
    print(f"\n{title}")
    print(f"{'metric':<14}{'parent median':>15}{'parent quartiles':>22}"
          f"{'change median':>15}{'change better':>15}{'verdict':>12}")
    for name, (pairs, better, bound) in rows.items():
        if not pairs:
            continue
        parent, change = zip(*pairs)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else (parent[0],) * 3)
        wins = sum(c < p if better == "lower" else c > p for p, c in pairs)
        print(f"{name:<14}{statistics.median(parent):>15.4f}{f'[{q1:.4f}, {q3:.4f}]':>22}"
              f"{statistics.median(change):>15.4f}{f'{wins}/{len(pairs)}':>15}"
              f"{verdict(parent, change, q3 - q1, wins, better, bound):>12}")
    print(flush=True)


def file_huge_pages() -> str:
    """``", FileHugePages <n> kB"`` from ``/proc/meminfo``, or ``""`` where
    the file or the line does not exist."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("FileHugePages:"):
                    return f", FileHugePages {line.split(':', 1)[1].strip()}"
    except OSError:
        pass
    return ""


def import_seconds(root: Path) -> float | None:
    """Wall time of one fresh interpreter importing ``segqc.cli`` from
    ``root``'s sources, or None when the start fails."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import segqc.cli"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return None if proc.returncode else wall


def compare_import(bound: float, args) -> list[str]:
    """Time the import starts in alternating pairs, print them, return failures."""
    sides = {"parent": args.parent, "change": args.change}
    failures = [f"import warm-up {side}: failed" for side, root in sides.items()
                if import_seconds(root) is None]
    pairs = []
    for k in range(IMPORT_STARTS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: import_seconds(sides[side]) for side in order}
        failures += [f"import pair {k + 1} {side}: failed" for side in order
                     if got[side] is None]
        if None not in got.values():
            pairs.append((got["parent"], got["change"]))
    print_table(f"fresh import segqc.cli, {IMPORT_STARTS} pairs",
                {"import_s": (pairs, "lower", bound)})
    return failures


def compare(workload: str, metrics: dict, args) -> list[str]:
    """Run the pairs of one workload, print its table, return its failures."""
    sides = {"parent": args.parent, "change": args.change}
    values = {side: [] for side in sides}  # per pair, that run's metrics or None
    failures = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            got, problems = run_once(sides[side], workload, args)
            values[side].append(got)
            failures += [f"{workload} pair {pair + 1} {side}: {p}" for p in problems]
            shown = "failed" if got is None else ", ".join(
                f"{name} {value:.4g}" for name, value in got.items())
            print(f"{workload} pair {pair + 1}/{args.pairs} {side}: {shown}", flush=True)

    per_call = dict.fromkeys(name for got in values["parent"] + values["change"]
                             for name in got or () if name not in metrics)
    rows = {**metrics, **{name: ("lower", metrics["metrics_s"][1]) for name in per_call}}
    print_table(f"{workload}, seed {args.seed}, {args.pairs} pairs, {args.seconds:g} s a run"
                f"{file_huge_pages()}",
                {name: ([(p[name], c[name]) for p, c in zip(values["parent"], values["change"])
                         if p is not None and c is not None and name in p and name in c],
                        better, bound)
                 for name, (better, bound) in rows.items()})
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to compare; give it once per workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    failures = []
    for workload in args.workload:
        failures += compare(workload, metrics, args)
    failures += compare_import(metrics["setup_s"][1], args)
    print("failed: " + ("none" if not failures else f"{len(failures)}"))
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
