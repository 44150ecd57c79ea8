"""The names the benchmark in ``perfbench/`` reaches inside segqc.

``perfbench/spans.py`` wraps public functions by their module-level name
and reads attributes of their arguments and results; a rename or a
deletion here would crash a traced run or silently zero a per-layer
metric, so every such name is checked to still exist.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from segqc.stats import RegressionResult
from segqc.synth import make_cohort
from segqc.volumes import LabelVolume, McSampleSet, ProbMapStack, VoxelGeometry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# spans wrapped on classes rather than found among a module's functions
METHOD_SPANS = {
    "volumes.check_labels": (LabelVolume, "check_labels"),
    "volumes.prob_map_checks": (ProbMapStack, "violations"),
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_names():
    run = load("run")  # puts perfbench/ on sys.path, which spans needs
    spans = load("spans")
    names = {span for span, _, _ in run.PER_LAYER.values() if span is not None}
    return sorted(names | set(spans.HOOKS))


@pytest.mark.parametrize("name", span_names())
def test_every_benchmark_span_names_a_traced_callable(name):
    if name in METHOD_SPANS:
        cls, method = METHOD_SPANS[name]
        assert inspect.isfunction(getattr(cls, method))
        return
    layer, attr = name.split(".")
    module = importlib.import_module(f"segqc.{layer}")
    # spans.py names cli.cmd_<x> as cli.<x>
    fn = getattr(module, f"cmd_{attr}" if layer == "cli" else attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_attributes_the_span_hooks_and_inputs_read():
    assert callable(McSampleSet.sample_labels)
    assert isinstance(McSampleSet.n, property)
    assert isinstance(VoxelGeometry.n_voxels, property)
    assert "n_iter" in {f.name for f in dataclasses.fields(RegressionResult)}
    assert inspect.isfunction(make_cohort)
