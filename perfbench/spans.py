"""Run one segqc CLI call in-process, optionally with per-module spans.

    python perfbench/spans.py --src SRC --result OUT.json [--plain] -- ARGV...

Imports ``segqc.cli`` from SRC and times ``main(ARGV)``. Unless
``--plain`` is given, wrappers installed from outside the package first
surround every public function of the modules ``nifti``, ``io``,
``volumes``, ``metrics``, ``stats``, ``synth`` and ``cli`` (plus
``LabelVolume.check_labels`` and ``ProbMapStack.violations``) with a
span. A span's self time is its duration minus the union of its child
spans; a span opened on a worker thread with nothing open on that thread
is a child of the span open on the main thread. OUT.json receives the
exit code, the wall time of ``main`` and, per span name, the call count,
summed self time and the counters listed in ``HOOKS``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import niftilite

LAYERS = ("nifti", "io", "volumes", "metrics", "stats", "synth", "cli")
SUMMED = ("bytes_in", "bytes_decoded", "bytes_out", "rows", "n_iter",
          "disagree_voxels", "voxels", "sample_voxels")


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _disagreement(result, args, kwargs):
    sample_set = args[0]
    base = sample_set.sample_labels(0)
    agree = None
    for i in range(1, sample_set.n):
        eq = sample_set.sample_labels(i) == base
        agree = eq if agree is None else agree & eq
    voxels = sample_set.geometry.n_voxels
    return {"disagree_voxels": voxels - int(agree.sum()), "voxels": voxels,
            "sample_voxels": sample_set.n * voxels}


# Counters computed after a call returns, outside its span.
HOOKS = {
    "nifti.read_nifti": lambda r, a, k: {
        "bytes_in": os.stat(_path_arg(a, k)).st_size,
        "bytes_decoded": niftilite.decoded_size(_path_arg(a, k))},
    "nifti.write_nifti": lambda r, a, k: {"bytes_out": os.stat(_path_arg(a, k)).st_size},
    "io.read_cohort_csv": lambda r, a, k: {"rows": r.n},
    "stats.huber_fit": lambda r, a, k: {"n_iter": r.n_iter},
    "metrics.structure_report": _disagreement,
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; spans are aggregated when the call ends."""

    def __init__(self):
        self.spans = []  # [name, id, parent, t0, t1, rss_growth_mb, counters]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            rss0 = _maxrss_mb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = [name, sid, parent, t0, t1, _maxrss_mb() - rss0, {}]
                self.spans.append(span)
            if hook is not None:
                span[6] = hook(result, args, kwargs)
                # the hook's own time is excluded from the enclosing span
                self.spans.append(["", next(self._ids), parent, t1, time.perf_counter(), 0.0, {}])
            return result

        return traced

    def install(self, package) -> None:
        """Swap every reference to a traced function inside the package."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{layer}.{attr.removeprefix('cmd_')}"
        wrapped = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname == package.__name__ or modname.startswith(package.__name__ + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])
        volumes = sys.modules[f"{package.__name__}.volumes"]
        for cls, method, name in ((volumes.LabelVolume, "check_labels", "volumes.check_labels"),
                                  (volumes.ProbMapStack, "violations",
                                   "volumes.prob_map_checks")):
            setattr(cls, method, self.wrap(name, getattr(cls, method)))

    def summary(self) -> dict:
        """Per span name: calls, self_s, rss_growth_mb (max) and summed counters."""
        children: dict[int, list] = {}
        for s in self.spans:
            children.setdefault(s[2], []).append((s[3], s[4]))
        out: dict[str, dict] = {}
        for name, sid, _, t0, t1, rss, counters in self.spans:
            if not name:
                continue
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, [])):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - covered
            agg["rss_growth_mb"] = max(agg["rss_growth_mb"], rss)
            for key in SUMMED:
                if key in counters:
                    agg[key] = agg.get(key, 0) + counters[key]
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the segqc package")
    ap.add_argument("--result", required=True, help="JSON file for the call's result")
    ap.add_argument("--plain", action="store_true", help="time main() without spans")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the segqc arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import segqc
    import segqc.cli

    tracer = Tracer()
    if not args.plain:
        tracer.install(segqc)
    t0 = time.perf_counter()
    code = segqc.cli.main(argv)
    wall = time.perf_counter() - t0
    doc = {"exit": code, "wall_s": wall, "spans": tracer.summary()}
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
