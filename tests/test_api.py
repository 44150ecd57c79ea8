"""The package's public names: what ``from segqc import *`` binds."""

from types import ModuleType

import segqc

PUBLIC = {
    "CohortTable", "CollinearityError", "LabelVolume", "McSampleSet",
    "NiftiFormatError", "NoiseSpec", "OrientationInfo", "PhantomSpec", "ProbMapStack",
    "ShapeSpec", "StructureMetrics", "StructureRegistry", "StructureReport",
    "ValidationError", "VoxelGeometry", "consensus_segmentation",
    "correlate_uncertainty_accuracy", "design_matrix", "dice_score",
    "group_analysis", "huber_fit", "make_cohort", "make_phantom", "pearson",
    "read_cohort_csv", "read_label_nifti", "read_nifti", "read_noise_json",
    "read_phantom_json", "read_registry", "read_report", "read_sample_set",
    "read_scan_manifest", "registry_for_phantom", "require_valid", "sample_mc",
    "standardize_table", "structure_report", "structure_uncertainty",
    "validate_sample_set", "voxel_uncertainty", "wls_fit", "write_heatmap_volume",
    "write_nifti", "write_registry", "write_report", "write_scan_manifest",
}


def test_star_import_binds_the_public_names_and_no_submodule():
    import segqc.cli  # noqa: F401  a submodule loaded later is not exported either

    namespace = {}
    exec("from segqc import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC) == 47 and set(namespace) == PUBLIC
    assert not any(isinstance(v, ModuleType) for v in namespace.values())
    assert all(getattr(segqc, name) is value for name, value in namespace.items())
