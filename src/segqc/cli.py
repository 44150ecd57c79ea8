"""Command-line surface: per-scan QC, cohort correlation, group fits, synthesis.

Conventions shared by every subcommand:

* exit 0 on success, 1 on validation or usage errors, 2 on I/O errors,
* human-readable tables go to stdout, machine-readable JSON/CSV to files,
* output files are written to a temp name and renamed, so failures never
  leave partial outputs behind,
* a directory of samples means every .nii/.nii.gz in it, sorted
  lexicographically (fixed order means fixed floating-point reductions);
  an explicit --manifest overrides discovery,
* SEGQC_THREADS caps the thread pools of a multi-scan ``simulate``, which
  writes one scan per thread (default: the CPU count), and of the label
  counting pass behind ``metrics`` and ``consensus`` (default: 2).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as sio
from .metrics import (
    _registry_counts,
    _thread_cap,
    consensus_segmentation,
    structure_report,
    voxel_uncertainty,
)
from .nifti import read_label_nifti, read_orientation, write_nifti
from .stats import GROUP_MODES, ValidationError, correlate_uncertainty_accuracy, group_analysis
from .synth import make_phantom, registry_for_phantom, sample_mc
from .volumes import StructureRegistry

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


@contextmanager
def _atomic(path: str | Path):
    """Yield a temp path; rename over the target only if the block succeeds.

    The temp name keeps the target's extensions (writers pick gzip vs
    plain from the suffix) and starts with a dot so discovery skips it.
    """
    final = Path(path)
    tmp = final.with_name(f".tmp-{os.getpid()}-{final.name}")
    try:
        yield tmp
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink()


def _discover_samples(tokens: list[str]) -> list[str]:
    # directory mode picks up bare .nii only; gzipped or mixed layouts are
    # handled by an explicit manifest, which is the unambiguous route.
    # gt.nii is the layout's reserved ground-truth name, never a sample
    if len(tokens) == 1 and Path(tokens[0]).is_dir():
        root = Path(tokens[0])
        found = sorted(
            str(p) for p in root.iterdir()
            if p.name.endswith(".nii") and not p.name.startswith(".")
            and p.name != "gt.nii"
        )
        if not found:
            raise ValidationError(f"no .nii files in directory {root}")
        return found
    return list(tokens)


def _gather_inputs(args) -> tuple[list[str], StructureRegistry, str | None, list | None]:
    """Resolve samples, registry, gt, and prob stacks from flags + manifest."""
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
    return samples, registry, gt_path, manifest.get("probs")


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
    samples, registry, gt_path, probs = _gather_inputs(args)
    sample_set = sio.read_sample_set(samples, registry, prob_paths=probs)
    _thread_cap(1)  # a bad SEGQC_THREADS is not a ground-truth error
    try:
        # read_sample_set refused any bad sample, so what structure_report
        # refuses here is the ground truth
        report = structure_report(
            sample_set, gt=read_label_nifti(gt_path) if gt_path else None,
            normalize=args.normalize_entropy, scan_id=args.scan_id, dataset=args.dataset,
        )
    except ValidationError as exc:
        if not gt_path:
            raise
        raise ValidationError(f"{gt_path}: {exc}") from exc
    with _atomic(args.out) as tmp:
        sio.write_report(report, tmp)
    orient = read_orientation(samples[0]) if args.uncertainty_out or args.heatmap_out else None
    if args.uncertainty_out:
        unc = report.uncertainty or voxel_uncertainty(
            sample_set, normalize=args.normalize_entropy)
        with _atomic(args.uncertainty_out) as tmp:
            write_nifti(tmp, unc.values.astype(np.float32), unc.geometry, orient)
    if args.heatmap_out:
        with _atomic(args.heatmap_out) as tmp:
            sio.write_heatmap_volume(report.consensus, report, args.heatmap_metric, tmp, orient)
    _print_report_table(report)
    return EXIT_OK


def cmd_consensus(args) -> int:
    samples, registry, _, probs = _gather_inputs(args)
    sample_set = sio.read_sample_set(samples, registry, prob_paths=probs)
    consensus = consensus_segmentation(sample_set)
    with _atomic(args.out) as tmp:
        write_nifti(tmp, consensus, orientation=read_orientation(samples[0]))
    counts = dict(zip(registry.ids, _registry_counts(consensus.flat, registry)))
    print(f"consensus of {sample_set.n} samples -> {args.out}")
    for i, name in registry.foreground:
        print(f"  {name:<24}{int(counts[i]):>10} voxels")
    return EXIT_OK


def cmd_correlate(args) -> int:
    root = Path(args.reports)
    paths = sorted(root.glob("[!.]*.json")) if root.is_dir() else [root]  # skips dotfiles
    reports = [sio.read_report(p) for p in paths]
    if len(reports) < 3:
        raise ValidationError(f"need at least 3 reports, got {len(reports)}")

    results, absent_dropped = correlate_uncertainty_accuracy(reports)
    if args.out:
        with _atomic(args.out) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "metric", "r", "n_used", "n_dropped"])
            for (dataset, metric), res in results.items():
                w.writerow([dataset, metric, repr(res.r), res.n_used, res.n_dropped])
    print(f"{len(reports)} reports, {absent_dropped} absent-flagged structure records dropped")
    print(f"{'dataset':<16}{'metric':<12}{'r':>9}{'n_used':>8}{'dropped':>8}")
    for (dataset, metric), res in results.items():
        print(f"{dataset or '-':<16}{metric:<12}{res.r:>+9.4f}{res.n_used:>8}"
              f"{res.n_dropped:>8}")
    return EXIT_OK


def cmd_group(args) -> int:
    table = sio.read_cohort_csv(args.cohort)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    analysis = group_analysis(
        table, structure=args.structure, modes=modes, standardize=args.standardize
    )
    if args.out:
        with _atomic(args.out) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mode", "beta_d", "se_d", "p_d", "n_used", "n_dropped"])
            for row in analysis.rows:
                w.writerow([row.mode, repr(row.beta_d), repr(row.se_d),
                            repr(row.p_d), row.n_used, row.n_dropped])
    scale = "standardized" if analysis.standardized else "raw"
    print(f"diagnosis effect on {analysis.structure or 'volume'} ({scale} scale), "
          f"n = {table.n}")
    print(f"{'mode':<22}{'beta_d':>10}{'se':>10}{'p':>12}{'n_used':>8}{'dropped':>8}")
    for row in analysis.rows:
        print(f"{row.mode:<22}{row.beta_d:>10.4f}{row.se_d:>10.4f}"
              f"{row.p_d:>12.4g}{row.n_used:>8}{row.n_dropped:>8}")
    return EXIT_OK


def _write_one_scan(scan_dir, scan_id, gt, registry, noise, with_probs, dataset_rel):
    scan_dir.mkdir(parents=True, exist_ok=True)
    sample_set = sample_mc(gt, registry, noise, with_probs=with_probs)
    sample_names, prob_lists = [], []
    for i, sample in enumerate(sample_set.samples):
        name = f"sample_{i:03d}.nii"
        with _atomic(scan_dir / name) as tmp:
            write_nifti(tmp, sample.labels)
        sample_names.append(name)
        if with_probs:
            per_sample = []
            for k, lid in enumerate(registry.ids):
                pname = f"prob_{i:03d}_label_{lid}.nii.gz"
                with _atomic(scan_dir / pname) as tmp:
                    write_nifti(tmp, sample.probs.maps[k].astype(np.float32),
                                gt.geometry)
                per_sample.append(pname)
            prob_lists.append(per_sample)
    extra = {
        "scan_id": scan_id,
        "noise": {
            "n_samples": noise.n_samples,
            "flip_probs": {str(lid): p for lid, p in noise.flip_probs},
            "default_flip_prob": noise.default_flip_prob,
            "erosion_dilation_radius": noise.erosion_dilation_radius,
            "seed": noise.seed,
        },
    }
    with _atomic(scan_dir / "manifest.json") as tmp:
        sio.write_scan_manifest(
            tmp, sample_names,
            gt=f"{dataset_rel}gt.nii", registry=f"{dataset_rel}registry.json",
            probs=prob_lists if with_probs else None, extra=extra,
        )


def cmd_simulate(args) -> int:
    spec = sio.read_phantom_json(args.phantom)
    scans = sio.read_noise_json(args.noise)
    if args.seed is not None:
        scans = tuple(
            (sid, replace(noise, seed=args.seed + k))
            for k, (sid, noise) in enumerate(scans)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt = make_phantom(spec)
    registry = registry_for_phantom(spec)
    with _atomic(out / "gt.nii") as tmp:
        write_nifti(tmp, gt)
    with _atomic(out / "registry.json") as tmp:
        sio.write_registry(registry, tmp)

    single = len(scans) == 1 and scans[0][0] == ""
    if single:
        _write_one_scan(out, "", gt, registry, scans[0][1], args.with_probs, "")
        n = scans[0][1].n_samples
        print(f"wrote gt.nii, registry.json, {n} samples, manifest.json -> {out}")
        return EXIT_OK

    workers = min(_thread_cap(os.cpu_count() or 1), len(scans))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_write_one_scan, out / sid, sid, gt, registry, noise,
                        args.with_probs, "../")
            for sid, noise in scans
        ]
        for f in futures:
            f.result()
    with _atomic(out / "dataset.json") as tmp:
        doc = {"schema_version": sio.REPORT_SCHEMA_VERSION,
               "scans": [sid for sid, _ in scans]}
        Path(tmp).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
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
    p.add_argument("--heatmap-metric", default="mc_dice", choices=sio.HEATMAP_METRICS)
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


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
