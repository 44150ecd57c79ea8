"""Command-line surface: per-scan QC, cohort correlation, group fits, synthesis.

Conventions shared by every subcommand:

* exit 0 on success, 1 on validation or usage errors, 2 on I/O errors,
* human-readable tables go to stdout, machine-readable JSON/CSV to files,
* output files are written to a temp name and renamed, so failures never
  leave partial outputs behind,
* a directory of samples means every .nii/.nii.gz in it, sorted
  lexicographically (fixed order means fixed floating-point reductions);
  an explicit --manifest overrides discovery,
* SEGQC_THREADS caps the threads of a multi-scan ``simulate``, which
  writes one scan per thread (default: the CPU count), and of the label
  counting pass and the probability-map pass behind ``metrics`` and
  ``consensus`` (default: 2 each), the calling thread counted in all three.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

from . import io as sio
from .metrics import STRUCTURE_METRICS, _count_labels, structure_report, voxel_uncertainty
from .nifti import _atomic, _check_orientation, read_label_nifti, write_nifti
from .stats import GROUP_MODES, ValidationError, correlate_uncertainty_accuracy, group_analysis
from .synth import _label_dtype, make_phantom, registry_for_phantom, sample_mc, soft_probs
from .volumes import McSampleSet, _parallel, _require_memory, _thread_cap

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class UsageError(ValidationError):
    """Bad flags or arguments; reported like any validation failure."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2
    # for I/O, so route usage problems through the normal error path
    def error(self, message):
        raise UsageError(message)


def _discover_samples(tokens: list[str]) -> list[str]:
    # directory mode picks up bare .nii files only; gzipped or mixed layouts
    # are handled by an explicit manifest, which is the unambiguous route.
    # gt.nii is the layout's reserved ground-truth name, never a sample
    if len(tokens) == 1 and Path(tokens[0]).is_dir():
        root = Path(tokens[0])
        found = sorted(
            str(p) for p in root.iterdir()
            if p.name.endswith(".nii") and not p.name.startswith(".")
            and p.name != "gt.nii" and p.is_file()
        )
        if not found:
            raise ValidationError(f"no .nii files in directory {root}")
        return found
    return list(tokens)


def _read_inputs(args) -> tuple[list[str], str | None, McSampleSet]:
    """The sample paths, gt path and read sample set that flags + manifest name."""
    manifest = sio.read_scan_manifest(args.manifest) if args.manifest else {}
    samples = manifest.get("samples") or _discover_samples(args.samples or [])
    if args.samples and args.manifest:
        raise UsageError("give sample paths or --manifest, not both")
    if not samples:
        raise UsageError("no samples given: pass files, a directory, or --manifest")
    registry_path = args.registry or manifest.get("registry")
    if not registry_path:
        raise UsageError("--registry is required (or a manifest carrying one)")
    registry = sio.read_registry(registry_path)
    gt_path = getattr(args, "gt", None) or manifest.get("gt")
    return samples, gt_path, sio.read_sample_set(samples, registry, manifest.get("probs"))


def _print_report_table(report) -> None:
    def fmt(v, spec=".4f"):
        return "absent" if v is None else format(v, spec)

    print(f"scan: {report.scan_id or '-'}  samples: {report.n_samples}  "
          f"voxel uncertainty mean {report.uncertainty_mean:.4g} "
          f"max {report.uncertainty_max:.4g}")
    print(f"{'structure':<24}{'mean_vol':>12}{'cv':>10}{'mc_dice':>10}"
          f"{'mean_unc':>10}{'gt_dice':>10}")
    for s in report.structures:
        print(f"{s.name:<24}{s.mean_volume:>12.2f}{fmt(s.cv):>10}"
              f"{fmt(s.mc_dice):>10}{fmt(s.mean_uncertainty):>10}{fmt(s.gt_dice):>10}")


def cmd_metrics(args) -> int:
    samples, gt_path, sample_set = _read_inputs(args)
    _thread_cap(1)  # a bad SEGQC_THREADS is not a ground-truth error
    gt = read_label_nifti(gt_path) if gt_path else None  # its errors name the file
    first = sample_set.labels[0]  # its orientation fields go into every volume written
    if gt is not None:
        _check_orientation(gt_path, gt, samples[0], first)
    try:
        # read_sample_set refused any bad sample, so what structure_report
        # refuses here is the ground truth
        report = structure_report(
            sample_set, gt=gt,
            normalize=args.normalize_entropy, scan_id=args.scan_id, dataset=args.dataset,
        )
    except ValidationError as exc:
        if not gt_path:
            raise
        raise ValidationError(f"{gt_path}: {exc}") from exc
    sio.write_report(report, args.out)
    if args.uncertainty_out:
        unc = (voxel_uncertainty(sample_set, normalize=args.normalize_entropy)
               if report.uncertainty is None else report.uncertainty)
        write_nifti(args.uncertainty_out, unc, sample_set.geometry,
                    first._orientation)
    if args.heatmap_out:
        sio.write_heatmap_volume(report.consensus, report, args.heatmap_metric,
                                 args.heatmap_out, first._orientation)
    _print_report_table(report)
    return EXIT_OK


def cmd_consensus(args) -> int:
    _, _, sample_set = _read_inputs(args)
    _, counts, consensus = _count_labels(sample_set)  # read_sample_set validated the set
    write_nifti(args.out, consensus, orientation=sample_set.labels[0]._orientation)
    voxels = dict(zip(sample_set.registry.ids, counts[0]))
    print(f"consensus of {sample_set.n} samples -> {args.out}")
    for i, name in sample_set.registry.foreground:
        print(f"  {name:<24}{int(voxels[i]):>10} voxels")
    return EXIT_OK


def _write_csv(path: str, header: list[str], rows) -> None:
    with _atomic(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def cmd_correlate(args) -> int:
    root = Path(args.reports)
    # skips dotfiles, such as a half-written temp report, and all but regular files
    paths = (sorted(p for p in root.glob("[!.]*.json") if p.is_file()) if root.is_dir()
             else [root])
    reports = [sio.read_report(p) for p in paths]
    if len(reports) < 3:
        raise ValidationError(f"need at least 3 reports, got {len(reports)}")

    results, absent_dropped = correlate_uncertainty_accuracy(reports)
    if args.out:
        _write_csv(args.out, ["dataset", "metric", "r", "n_used", "n_dropped"],
                   ([*key, repr(res.r), res.n_used, res.n_dropped]
                    for key, res in results.items()))
    print(f"{len(reports)} reports, {absent_dropped} absent-flagged structure records dropped")
    print(f"{'dataset':<16}{'metric':<12}{'r':>9}{'n_used':>8}{'dropped':>8}")
    for (dataset, metric), res in results.items():
        print(f"{dataset or '-':<16}{metric:<12}{res.r:>+9.4f}{res.n_used:>8}"
              f"{res.n_dropped:>8}")
    return EXIT_OK


def cmd_group(args) -> int:
    table = sio.read_cohort_csv(args.cohort)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            analysis = group_analysis(
                table, structure=args.structure, modes=modes, standardize=args.standardize
            )
        finally:  # ahead of the error line, if the analysis failed
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    if args.out:
        _write_csv(args.out, ["mode", "beta_d", "se_d", "p_d", "n_used", "n_dropped"],
                   ([r.mode, repr(r.beta_d), repr(r.se_d), repr(r.p_d), r.n_used, r.n_dropped]
                    for r in analysis.rows))
    scale = "standardized" if analysis.standardized else "raw"
    print(f"diagnosis effect on {analysis.structure or 'volume'} ({scale} scale), "
          f"n = {table.n}")
    print(f"{'mode':<22}{'beta_d':>10}{'se':>10}{'p':>12}{'n_used':>8}{'dropped':>8}")
    for row in analysis.rows:
        print(f"{row.mode:<22}{row.beta_d:>10.4f}{row.se_d:>10.4f}"
              f"{row.p_d:>12.4g}{row.n_used:>8}{row.n_dropped:>8}")
    for mode, fit in analysis.fits.items():
        if fit.note:  # Huber's IRLS stopped without converging, say
            print(f"note: {mode}: {fit.note}", file=sys.stderr)
    return EXIT_OK


def _write_one_scan(out, gt, registry, with_probs, scan):
    """Write one scan of ``simulate``: into ``out`` itself when its id is ""."""
    scan_id, noise = scan
    scan_dir, dataset_rel = (out / scan_id, "../") if scan_id else (out, "")
    scan_dir.mkdir(parents=True, exist_ok=True)
    # each map is written as soon as it is made: one held, not N * K
    sample_set = sample_mc(gt, registry, noise, with_probs=False)
    sample_names, prob_lists = [], []
    for i, labels in enumerate(sample_set.labels):
        name = f"sample_{i:03d}.nii"
        write_nifti(scan_dir / name, labels)
        sample_names.append(name)
        if with_probs:
            per_sample = []
            for lid, m in zip(registry.ids, soft_probs(labels, registry, noise)):
                pname = f"prob_{i:03d}_label_{lid}.nii.gz"
                write_nifti(scan_dir / pname, m, gt.geometry)
                per_sample.append(pname)
            prob_lists.append(per_sample)
    # NoiseSpec's field order is the JSON key order
    extra = {"scan_id": scan_id, "noise": {
        **asdict(noise), "flip_probs": {str(lid): p for lid, p in noise.flip_probs}}}
    sio.write_scan_manifest(
        scan_dir / "manifest.json", sample_names,
        gt=f"{dataset_rel}gt.nii", registry=f"{dataset_rel}registry.json",
        probs=prob_lists if with_probs else None, extra=extra,
    )


def cmd_simulate(args) -> int:
    spec = sio.read_phantom_json(args.phantom)
    scans = sio.read_noise_json(args.noise)
    if args.seed is not None:
        scans = tuple((sid, replace(noise, seed=args.seed + k))
                      for k, (sid, noise) in enumerate(scans))
    # a voxel of one scan holds N labels (a byte each, two past id 255), the sampler's masks
    # (about 8 bytes) and, with maps, the float64 map being written and write_nifti's float32
    # payload, its Fortran-order bytes and those joined to the header (8 + 3 * 4)
    n = max(noise.n_samples for _, noise in scans)
    label_bytes = _label_dtype([spec.background_id, *spec.label_ids]).itemsize
    need = spec.geometry.n_voxels * (8 + n * label_bytes + 20 * args.with_probs)
    limit = _require_memory(need, f"dims {list(spec.geometry.dims)} with n_samples {n}")
    for sid, _ in scans:  # a scan directory may not take the name of a file beside it
        if sid in ("gt.nii", "registry.json", "dataset.json"):
            raise ValidationError(f"scan_id {sid!r} is reserved: simulate writes that file")
    # like the checks above, read before --out exists, so a refusal writes nothing
    single = len(scans) == 1 and scans[0][0] == ""
    # no more scans at once than memory holds
    workers = 1 if single else min(_thread_cap(os.cpu_count() or 1), len(scans), limit // need)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt = make_phantom(spec)
    registry = registry_for_phantom(spec)
    write_nifti(out / "gt.nii", gt)
    sio.write_registry(registry, out / "registry.json")

    _parallel(partial(_write_one_scan, out, gt, registry, args.with_probs), scans, workers)
    if single:
        print(f"wrote gt.nii, registry.json, {n} samples, manifest.json -> {out}")
        return EXIT_OK
    sio._dump_json({"schema_version": sio.REPORT_SCHEMA_VERSION,
                    "scans": [sid for sid, _ in scans]}, out / "dataset.json")
    print(f"wrote gt.nii, registry.json, and {len(scans)} scan directories -> {out}")
    return EXIT_OK


def _add_sample_input_flags(p: _Parser, with_gt: bool) -> None:
    p.add_argument("samples", nargs="*",
                   help="sample .nii files, or one directory of them")
    p.add_argument("--manifest", help="manifest JSON listing samples (overrides discovery)")
    p.add_argument("--registry", help="structure registry JSON")
    if with_gt:
        p.add_argument("--gt", help="ground-truth label .nii for Dice columns")


def build_parser() -> _Parser:
    parser = _Parser(prog="segqc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("metrics", help="per-scan uncertainty and agreement report")
    _add_sample_input_flags(p, with_gt=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--uncertainty-out", help="voxel uncertainty .nii path")
    p.add_argument("--heatmap-out", help="structure-metric heat map .nii path")
    p.add_argument("--heatmap-metric", default="mc_dice", choices=STRUCTURE_METRICS)
    p.add_argument("--normalize-entropy", action="store_true",
                   help="divide the uncertainty map by the sample count")
    p.add_argument("--scan-id", default="", help="scan tag recorded in the report")
    p.add_argument("--dataset", default="", help="dataset tag recorded in the report")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("consensus", help="majority/mean-probability consensus volume")
    _add_sample_input_flags(p, with_gt=False)
    p.add_argument("--out", required=True, help="consensus .nii path")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("correlate", help="uncertainty-vs-Dice correlations over reports")
    p.add_argument("reports", help="directory of report JSON files")
    p.add_argument("--out", help="CSV of r per metric per dataset")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("group", help="diagnosis effect under several weighting modes")
    p.add_argument("cohort", help="cohort CSV")
    p.add_argument("--modes", default=",".join(GROUP_MODES),
                   help="comma-separated weighting modes")
    p.add_argument("--structure", default="", help="structure tag for the output")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True,
                   help="z-score volume and age before fitting")
    p.add_argument("--out", help="CSV of the mode table")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("simulate", help="phantom ground truth plus MC sample files")
    p.add_argument("--phantom", required=True, help="phantom spec JSON")
    p.add_argument("--noise", required=True, help="noise spec JSON (single- or multi-scan)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the noise seed (scan k gets seed + k)")
    p.add_argument("--with-probs", action="store_true",
                   help="also write per-structure probability volumes")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_help()
            return EXIT_VALIDATION
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a file read that runs out is named by read_nifti instead
        print(f"error: out of memory: {str(exc) or 'no detail given'}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
