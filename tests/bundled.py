"""The bundled correlation study, read from the configs shipped in ``docs/``.

These are the files that ``segqc simulate`` and the README walk-through
use, so the tests check the one study that users run.
"""

from pathlib import Path

from segqc.io import read_noise_json, read_phantom_json

DOCS = Path(__file__).resolve().parent.parent / "docs"


def bundled_phantom():
    """The paired-box phantom of ``docs/paired_boxes_phantom.json``."""
    return read_phantom_json(DOCS / "paired_boxes_phantom.json")


def bundled_scans():
    """The (scan_id, NoiseSpec) pairs of ``docs/graded_noise.json``."""
    return read_noise_json(DOCS / "graded_noise.json")
