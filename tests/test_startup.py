"""What a CLI call imports: scipy only where a subcommand uses it, and
of ``scipy.special`` only its compiled ufunc module.

The test process has scipy loaded already, so every check runs in a
fresh interpreter and reads its ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import segqc
from segqc.cli import main as cli_main
from segqc.synth import _STRUCT6, make_cohort
from test_io import write_cohort_csv

# scipy's array-API layer, which the ``scipy.special`` package loads and segqc never uses
_ARRAY_API = {"scipy.special._support_alternative_backends", "scipy._lib._array_api"}

# Prelude of every probe: notes, at each thread pool submission, which of
# the scipy modules segqc uses (and the package of its ufuncs) are loaded yet.
_NOTE_SUBMITS = """
import json, sys
from concurrent.futures import ThreadPoolExecutor
at_submit = []
submit = ThreadPoolExecutor.submit
def noting(self, *args, **kwargs):
    at_submit.append([m for m in ("scipy.special._ufuncs", "scipy.special", "scipy.ndimage")
                      if m in sys.modules])
    return submit(self, *args, **kwargs)
ThreadPoolExecutor.submit = noting
"""

# Runs ``main(argv)``, or only imports the CLI when argv is null.
_CLI_PROBE = _NOTE_SUBMITS + """
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import segqc.cli
else:
    from segqc.cli import main
    code = main(argv)
mods = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": mods, "at_submit": at_submit}))
"""

# A probability pass over two samples of two z-slabs each, labelled with
# their argmax by the oracle.
_PROB_PASS_PROBE = _NOTE_SUBMITS + """
import numpy as np
from oracles import argmax_labels_oracle
from segqc.volumes import LabelVolume, McSampleSet, ProbMapStack, StructureRegistry, VoxelGeometry
geom = VoxelGeometry((64, 64, 40), (1.0, 1.0, 1.0))
p = np.random.default_rng(0).random((2, *geom.dims))
probs = [ProbMapStack(geom, (0, 1), np.stack([q, 1 - q])) for q in p]
labels = [LabelVolume(geom, argmax_labels_oracle(s.maps, s.label_ids)) for s in probs]
sample_set = McSampleSet(geom, StructureRegistry(((0, "bg"), (1, "a")), 0), labels, probs)
assert not sample_set.violations and sample_set.prob_pass.entropy is not None
print(json.dumps({"at_submit": at_submit}))
"""


# Runs ``main`` on each argv of a list, noting every ufunc segqc took from
# ``_special``, then imports ``scipy.special``: what was loaded before the
# import, and what the package holds after it.
_LATER_IMPORT_PROBE = """
import json, sys
import segqc.cli
from segqc import metrics, stats, volumes
used = []
def noting(name, special=volumes._special):
    used.append((name, special(name)))
    return used[-1][1]
for module in (volumes, metrics, stats):
    module._special = noting
codes = [segqc.cli.main(argv) for argv in json.loads(sys.argv[1])]
import scipy
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
had_attr = "special" in vars(scipy)
import scipy.special
print(json.dumps({
    "codes": codes, "before": before, "had_attr": had_attr,
    "used": sorted({name for name, _ in used}),
    "same": all(getattr(scipy.special, name) is ufunc for name, ufunc in used),
    "package": scipy.special.__file__, "bound": vars(scipy)["special"] is scipy.special,
    "ufuncs": scipy.special._ufuncs is sys.modules["scipy.special._ufuncs"],
    "gammaln": callable(getattr(scipy.special, "gammaln", None)),
}))
"""


# A scipy whose ``scipy.special._ufuncs`` is found only by the package itself
# (another layout): ``_special`` falls back on the package's own import.
_OTHER_LAYOUT_PROBE = """
import json, sys
class OnlyUnderThePackage:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and sys.modules["scipy.special"].__spec__ is None:
            raise ModuleNotFoundError(name, name=name)
sys.meta_path.insert(0, OnlyUnderThePackage())
from segqc.volumes import _special
xlogy = _special("xlogy")
import scipy.special
print(json.dumps({"same": xlogy is scipy.special.xlogy, "package": scipy.special.__file__}))
"""


def fresh(code: str, *args: str, **env: str) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    src = str(Path(segqc.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)  # the oracles
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, tests, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cli_probe(argv=None, **env: str) -> dict:
    """Exit code of ``main(argv)`` in a fresh interpreter (or a bare
    ``import segqc.cli`` when argv is None), the scipy modules it loaded
    and what was loaded at each pool submission."""
    return fresh(_CLI_PROBE, json.dumps(None if argv is None else [str(a) for a in argv]), **env)


def scipy_modules(argv=None) -> tuple[int | None, list[str]]:
    doc = cli_probe(argv)
    return doc["code"], doc["scipy"]


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Three simulated scans with probability maps, and a report of each."""
    root = tmp_path_factory.mktemp("startup")
    phantom, noise = root / "phantom.json", root / "noise.json"
    phantom.write_text(json.dumps({"dims": [8, 8, 8], "shapes": [
        {"label": 1, "kind": "box", "center": [3.5, 3.5, 3.5], "size": [4, 4, 4]}]}))
    noise.write_text(json.dumps({"n_samples": 3, "default_flip_prob": 0.2,
                                 "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(3)]}))
    sim, reports = root / "sim", root / "reports"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim, "--with-probs"])
    reports.mkdir()
    for k in range(3):
        run(["metrics", "--manifest", sim / f"s{k}" / "manifest.json",
             "--out", reports / f"s{k}.json"])
    return sim, reports


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A 40-subject cohort CSV for ``group``."""
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    write_cohort_csv(make_cohort(40, seed=21)[0], path)
    return path


def run(argv):
    assert cli_main([str(a) for a in argv]) == 0


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules() == (None, [])


def test_label_only_metrics_consensus_and_correlate_load_no_scipy(study, tmp_path):
    sim, reports = study
    assert scipy_modules(["metrics", sim / "s0", "--registry", sim / "registry.json",
                          "--gt", sim / "gt.nii", "--out", tmp_path / "r.json"]) == (0, [])
    assert scipy_modules(["consensus", sim / "s0", "--registry", sim / "registry.json",
                          "--out", tmp_path / "c.nii"]) == (0, [])
    assert scipy_modules(["correlate", reports, "--out", tmp_path / "c.csv"]) == (0, [])


def assert_ufuncs_alone(mods: list[str]) -> None:
    """scipy's compiled ufunc module is loaded, but neither the
    ``scipy.special`` package nor its array-API layer."""
    assert "scipy.special._ufuncs" in mods
    assert "scipy.special" not in mods
    assert not _ARRAY_API & set(mods)


def test_metrics_with_maps_loads_only_scipy_special(study, tmp_path):
    sim, _ = study
    code, mods = scipy_modules(["metrics", "--manifest", sim / "s0" / "manifest.json",
                                "--out", tmp_path / "r.json"])
    assert code == 0
    assert_ufuncs_alone(mods)
    assert not [m for m in mods if m.startswith("scipy.ndimage")]


def test_group_loads_only_scipys_ufuncs(cohort, tmp_path):
    code, mods = scipy_modules(["group", cohort, "--out", tmp_path / "g.csv"])
    assert code == 0
    assert_ufuncs_alone(mods)
    assert not [m for m in mods if m.startswith("scipy.ndimage")]


def test_scipy_special_imported_later_is_whole_and_holds_the_same_ufuncs(study, cohort,
                                                                          tmp_path):
    sim, _ = study
    argvs = [["metrics", "--manifest", str(sim / "s0" / "manifest.json"),
              "--out", str(tmp_path / "r.json")],
             ["group", str(cohort), "--out", str(tmp_path / "g.csv")]]
    doc = fresh(_LATER_IMPORT_PROBE, json.dumps(argvs))
    assert doc["codes"] == [0, 0]
    assert doc["used"] == ["betainc", "xlogy"]
    # no placeholder left behind, and the package not loaded by the calls
    assert_ufuncs_alone(doc["before"])
    assert not doc["had_attr"]
    # the real package, bound on scipy, holding the very ufuncs segqc used
    assert Path(doc["package"]).name == "__init__.py" and doc["bound"]
    assert doc["same"] and doc["ufuncs"] and doc["gammaln"]


def test_struct6_is_the_6_connected_element():
    want = ndimage.generate_binary_structure(3, 1)
    assert _STRUCT6.dtype == want.dtype and np.array_equal(_STRUCT6, want)


def test_special_falls_back_on_the_package_import():
    doc = fresh(_OTHER_LAYOUT_PROBE)
    assert doc["same"] and Path(doc["package"]).name == "__init__.py"


def test_prob_pass_imports_scipy_special_before_its_pool():
    # an import first resolved on a pool thread could block the pool, and
    # the placeholder package that the ufunc module is imported under is
    # put in sys.modules and taken out on the calling thread alone
    at_submit = fresh(_PROB_PASS_PROBE, SEGQC_THREADS="2")["at_submit"]
    # workers - 1 = 1 submission a call; two calls a sample: decode, then fold
    assert len(at_submit) == 2 * 2
    assert at_submit[0] == ["scipy.special._ufuncs"]
    assert all(loaded == at_submit[0] for loaded in at_submit)


def test_simulate_imports_scipy_ndimage_before_its_pool(study, tmp_path):
    root = study[0].parent
    doc = cli_probe(["simulate", "--phantom", root / "phantom.json",
                     "--noise", root / "noise.json", "--out", tmp_path / "sim"],
                    SEGQC_THREADS="3")
    assert doc["code"] == 0
    assert len(doc["at_submit"]) == 3 - 1  # one call for 3 scans: workers - 1 submissions
    assert all("scipy.ndimage" in loaded for loaded in doc["at_submit"])
