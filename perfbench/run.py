"""segqc benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload a9_labels --seed 0 --seconds 10 --trace 0

Run from the root of a checkout of the repository. Inputs are generated
from ``--seed`` (once, cached under ``.perfbench_work/``) before anything
is timed. With ``--trace 0`` every call is a fresh ``python -m segqc.cli``
process, started only after the previous one exited, and passes repeat
until ``--seconds`` have elapsed (at least one pass). With ``--trace 1``
each call of a pass runs in-process in a fresh child twice, once plain
and once with per-module spans (see ``spans.py``), and the run reports
per-layer metrics and the tracing overhead.

Every call's output is checked (see ``checks.py``); a call fails when it
exits nonzero or its check fails. Human-readable lines go to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = {"full": 7, "smoke": 2}
CALL_TIMEOUT_S = 150

# name -> unit; the --trace 0 metrics
END_TO_END = {"metrics_s": "s", "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-call medians reported beside them, for the workloads that make such calls.
EXTRA_KINDS = ("simulate", "correlate", "group")

# name -> (span, field, unit); the --trace 1 metrics
PER_LAYER = {}
for _span, _fields in (
    ("nifti.read_nifti", ("calls", "self_s", "bytes_in", "bytes_decoded")),
    ("nifti.write_nifti", ("calls", "self_s", "bytes_out")),
    ("io.read_sample_set", ("calls", "self_s", "rss_growth_mb")),
    ("io.write_report", ("self_s",)),
    ("io.read_report", ("self_s",)),
    ("io.read_cohort_csv", ("self_s", "rows")),
    ("io.write_heatmap_volume", ("self_s",)),
    ("volumes.check_labels", ("calls", "self_s")),
    ("volumes.validate_sample_set", ("calls", "self_s")),
    ("volumes.prob_map_checks", ("self_s",)),
    ("metrics.consensus_segmentation", ("calls", "self_s")),
    ("metrics.voxel_uncertainty", ("calls", "self_s")),
    ("metrics.structure_report", ("self_s", "rss_growth_mb")),
    ("stats.pearson", ("calls", "self_s")),
    ("stats.group_analysis", ("self_s",)),
    ("stats.wls_fit", ("calls", "self_s")),
    ("stats.huber_fit", ("self_s", "n_iter")),
    ("synth.make_phantom", ("self_s",)),
    ("synth.sample_mc", ("calls", "self_s")),
    ("cli.metrics", ("self_s",)),
    ("cli.simulate", ("self_s",)),
    ("cli.correlate", ("self_s",)),
    ("cli.group", ("self_s",)),
):
    for _field in _fields:
        _unit = {"calls": "count", "self_s": "s", "rss_growth_mb": "MB",
                 "rows": "count", "n_iter": "count"}.get(_field, "B")
        PER_LAYER[f"{_span}.{_field}"] = (_span, _field, _unit)
PER_LAYER["metrics.disagree_voxel_frac"] = ("metrics.structure_report", "disagree_frac", "1")
PER_LAYER["metrics.sample_voxels"] = ("metrics.structure_report", "sample_voxels", "count")
PER_LAYER["cli.trace_overhead_s"] = (None, "trace_overhead_s", "s")


class Checker:
    """Expected values of one workload's inputs, and the check of each call."""

    def __init__(self, workload: str, inputs: Path, meta: dict):
        self.workload, self.meta = workload, meta
        cache = inputs / "expected.pickle"
        if cache.is_file():
            self.expected = pickle.loads(cache.read_bytes())
            return
        if workload == "a9_labels":
            self.expected = checks.a9_expected(meta)
        elif workload == "prob_maps":
            self.expected = checks.prob_expected(inputs / "scan")
        else:
            self.expected = checks.group_expected(inputs / "cohort.csv")
        cache.write_bytes(pickle.dumps(self.expected))

    def __call__(self, call: workloads.Call) -> list[str]:
        o = call.outputs
        try:
            if self.workload == "a9_labels":
                return checks.compare_report(checks.load_json(o["report"]), self.expected)
            if self.workload == "prob_maps":
                return checks.check_prob_outputs(o, self.expected)
            if call.kind == "simulate":
                return checks.check_simulate(o["sim"], self.meta)
            if call.kind == "metrics":
                return checks.check_study_report(o["report"], self.meta["n_samples"])
            if call.kind == "correlate":
                return checks.check_correlate(o["reports"], o["csv"])
            return checks.check_group(o["csv"], self.expected)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"output unreadable: {type(exc).__name__}: {exc}"]


class Launcher:
    """Runs every program process through ``launcher.py`` (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
        """Run one process to completion: (exit code, wall s, peak RSS MB)."""
        req = {"cmd": cmd, "env": env, "cwd": str(ROOT), "log": str(log),
               "timeout_s": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        r = json.loads(reply)
        return r["exit"], r["wall_s"], r["rss_mb"]

    def close(self) -> None:
        """Stop the launcher, which first kills and reaps a running child."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, env: dict, log: Path, reps: int) -> list[float]:
    """Fresh interpreter plus ``import segqc.cli``; the first start is a warm-up."""
    cmd = [sys.executable, "-c", "import segqc.cli"]
    times = []
    for k in range(reps + 1):
        code, wall, _ = launcher.spawn(cmd, env, log)
        if code != 0:
            raise RuntimeError(f"import segqc.cli failed: {log.read_text(errors='replace')}")
        if k:
            times.append(wall)
    return times


def machine() -> dict:
    """CPU count and model, cache sizes, RAM and library versions of this host."""
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_mib"] = int(line.split()[1]) // 1024
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux: report what is known
    return info


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def run_pass(workload, inputs, meta, out, make_cmd, launcher, env, checker) -> dict:
    """One closed-loop pass; every call is checked after the pass ends."""
    calls = workloads.pass_calls(workload, inputs, meta, fresh_dir(out))
    results = []
    t0 = time.perf_counter()
    for k, call in enumerate(calls):
        code, wall, rss = launcher.spawn(make_cmd(call, out / f"call{k}.json"), env,
                                         out / f"call{k}.log")
        results.append({"kind": call.kind, "exit": code, "wall_s": wall, "rss_mb": rss})
    pass_s = time.perf_counter() - t0
    for k, (call, res) in enumerate(zip(calls, results)):
        if res["exit"] != 0:
            log = (out / f"call{k}.log").read_text(errors="replace").strip()
            res["problems"] = [f"exit {res['exit']}: {log[-500:]}"]
        else:
            res["problems"] = checker(call)
    return {"pass_s": pass_s, "calls": results}


def cli_cmd(call, _result):
    return [sys.executable, "-m", "segqc.cli", *call.argv]


def trace_cmd(plain: bool):
    def make(call, result):
        cmd = [sys.executable, str(HERE / "spans.py"), "--src", str(ROOT / "src"),
               "--result", str(result)]
        return cmd + (["--plain"] if plain else []) + ["--", *call.argv]
    return make


def pass_trace(out: Path, n_calls: int) -> dict:
    """Per-span totals over the calls of one pass, plus main() wall time."""
    spans, wall = {}, 0.0
    for k in range(n_calls):
        result = out / f"call{k}.json"
        if not result.is_file():  # the call crashed; it is counted as failed
            continue
        doc = json.loads(result.read_text(encoding="utf-8"))
        wall += doc["wall_s"]
        for name, agg in doc["spans"].items():
            tot = spans.setdefault(name, {})
            for key, value in agg.items():
                tot[key] = max(tot.get(key, 0), value) if key == "rss_growth_mb" \
                    else tot.get(key, 0) + value
    return {"wall_s": wall, "spans": spans}


def layer_metrics(traced: dict, overhead: float) -> dict:
    out = {}
    for name, (span, field, unit) in PER_LAYER.items():
        agg = traced["spans"].get(span, {})
        if field == "trace_overhead_s":
            value = overhead
        elif field == "disagree_frac":
            value = agg["disagree_voxels"] / agg["voxels"] if agg.get("voxels") else 0.0
        else:
            value = agg.get(field, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def summarize(passes: list[dict]) -> dict:
    """Per call kind: median wall time and call count."""
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for c in p["calls"]:
            by_kind.setdefault(c["kind"], []).append(c["wall_s"])
    return {k: (statistics.median(v), len(v)) for k, v in by_kind.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure passes until this much time has elapsed (>= 1 pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke is a tiny version of every workload for self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "segqc" / "cli.py").is_file():
        print(f"error: no segqc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = workloads.program_env(ROOT)
    launcher = Launcher()  # started while this process is still small
    out_root = WORK / f"out-{args.workload}-{args.scale}"
    try:
        inputs, meta = workloads.generate(ROOT, WORK, args.workload, args.scale, args.seed)
        checker = Checker(args.workload, inputs, meta)
        for f in inputs.rglob("*"):  # every call then reads its inputs from the page cache
            if f.is_file():
                f.read_bytes()
        fresh_dir(out_root)
        measure = run_traced if args.trace else run_untraced
        metrics, passes = measure(args, inputs, meta, out_root, launcher, env, checker)
    finally:
        launcher.close()
        shutil.rmtree(out_root, ignore_errors=True)

    calls = [c for p in passes for c in p["calls"]]
    failed = [c for c in calls if c["problems"]]
    for c in failed:
        print(f"FAILED {c['kind']}: {'; '.join(c['problems'][:5])}")
    host = machine()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}: {len(passes)} passes, "
          f"input {meta['input_bytes'] / 2**20:.1f} MiB (last-level cache "
          f"{host.get('l3', host.get('l2', '?'))}), "
          f"error_rate {len(failed)}/{len(calls)} = {len(failed) / len(calls):.3f}")
    result = {"correct": not failed, "attempted": len(calls), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_untraced(args, inputs, meta, out_root, launcher, env, checker):
    setup = measure_setup(launcher, env, out_root / "setup.log", SETUP_REPS[args.scale])
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(args.workload, inputs, meta, out_root / "pass", cli_cmd,
                               launcher, env, checker))
    kinds = summarize(passes)
    metrics = {
        "metrics_s": {"value": kinds["metrics"][0], "unit": "s"},
        "pipeline_s": {"value": statistics.median(p["pass_s"] for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": max(c["rss_mb"] for p in passes for c in p["calls"]),
                        "unit": "MB"},
    }
    counts = {"metrics_s": kinds["metrics"][1], "pipeline_s": len(passes),
              "setup_s": len(setup), "peak_rss_mb": sum(n for _, n in kinds.values())}
    for name, m in metrics.items():
        print(f"{name:<16}{m['value']:>12.4f} {m['unit']:<4} n={counts[name]}")
    for kind in EXTRA_KINDS:
        if kind in kinds:
            print(f"{kind + '_s':<16}{kinds[kind][0]:>12.4f} s    n={kinds[kind][1]}")
    return metrics, passes


def run_traced(args, inputs, meta, out_root, launcher, env, checker):
    passes, traced, overheads = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        plain = run_pass(args.workload, inputs, meta, out_root / "plain", trace_cmd(True),
                         launcher, env, checker)
        spans = run_pass(args.workload, inputs, meta, out_root / "traced", trace_cmd(False),
                         launcher, env, checker)
        passes += [plain, spans]
        n = len(spans["calls"])
        traced.append(pass_trace(out_root / "traced", n))
        overheads.append(traced[-1]["wall_s"] - pass_trace(out_root / "plain", n)["wall_s"])
    per_pass = [layer_metrics(t, o) for t, o in zip(traced, overheads)]
    metrics = {name: {"value": statistics.median(m[name]["value"] for m in per_pass),
                      "unit": unit}
               for name, (_, _, unit) in PER_LAYER.items()}
    for name, m in metrics.items():
        print(f"{name:<42}{m['value']:>16.6g} {m['unit']}")
    return metrics, passes


if __name__ == "__main__":
    # a stopped benchmark unwinds, so the launcher stops and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
