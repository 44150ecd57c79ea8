"""Segmentation quality control from Monte Carlo samples.

Voxel-wise and structure-wise uncertainty measures over sets of
segmentation samples, their correlation with accuracy, and
uncertainty-weighted group analysis, plus a synthetic phantom oracle,
a minimal NIfTI-1 reader/writer, and a command line front end.
"""

from types import ModuleType as _ModuleType

from .volumes import (
    LabelVolume,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    require_valid,
    validate_sample_set,
)
from .metrics import (
    StructureMetrics,
    StructureReport,
    consensus_segmentation,
    dice_score,
    structure_report,
    structure_uncertainty,
    voxel_uncertainty,
)
from .stats import (
    CohortTable,
    CollinearityError,
    correlate_uncertainty_accuracy,
    design_matrix,
    group_analysis,
    huber_fit,
    pearson,
    standardize_table,
    wls_fit,
)
from .synth import (
    NoiseSpec,
    PhantomSpec,
    ShapeSpec,
    make_cohort,
    make_phantom,
    registry_for_phantom,
    sample_mc,
)
from .nifti import (
    NiftiFormatError,
    OrientationInfo,
    read_label_nifti,
    read_nifti,
    write_nifti,
)
from .io import (
    read_cohort_csv,
    read_noise_json,
    read_phantom_json,
    read_registry,
    read_report,
    read_sample_set,
    read_scan_manifest,
    write_heatmap_volume,
    write_registry,
    write_report,
    write_scan_manifest,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
