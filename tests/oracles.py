"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way on purpose: scalar
loops, set arithmetic, and textbook formulas, sharing no code with the
package so agreement between the two routes is evidence.
"""

import csv
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np


def entropy_map_oracle(prob_stacks):
    """Voxel uncertainty by triple scalar loop over (sample, structure, voxel).

    ``prob_stacks`` is a list of (n_labels, x, y, z) arrays, one per
    sample. Natural log, 0*ln(0) = 0, summed over samples and structures.
    """
    dims = prob_stacks[0].shape[1:]
    out = np.zeros(dims, dtype=np.float64)
    for stack in prob_stacks:
        for k in range(stack.shape[0]):
            for x in range(dims[0]):
                for y in range(dims[1]):
                    for z in range(dims[2]):
                        p = float(stack[k, x, y, z])
                        if p > 0.0:
                            out[x, y, z] -= p * math.log(p)
    return out


def dice_oracle(a, b, label):
    """Dice via python sets of voxel coordinates."""
    sa = {tuple(idx) for idx in np.argwhere(np.asarray(a) == label)}
    sb = {tuple(idx) for idx in np.argwhere(np.asarray(b) == label)}
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def mc_dice_oracle(label_arrays, label):
    """Mean Dice over all unordered sample pairs; None if the structure
    is absent from every sample."""
    if all(not np.any(np.asarray(arr) == label) for arr in label_arrays):
        return None
    scores = []
    n = len(label_arrays)
    for i in range(n):
        for j in range(i + 1, n):
            scores.append(dice_oracle(label_arrays[i], label_arrays[j], label))
    return sum(scores) / len(scores)


def cv_oracle(label_arrays, label, voxel_volume=1.0):
    """sd(ddof=1)/mean of per-sample volumes; None on zero mean."""
    vols = [float(np.count_nonzero(np.asarray(arr) == label)) * voxel_volume
            for arr in label_arrays]
    mean = sum(vols) / len(vols)
    if mean == 0.0:
        return None
    var = sum((v - mean) ** 2 for v in vols) / (len(vols) - 1)
    return math.sqrt(var) / mean


def majority_vote_oracle(label_arrays):
    """Most frequent label at each voxel by a Counter per voxel; ties go
    to the lowest label id."""
    arrays = [np.asarray(arr) for arr in label_arrays]
    out = np.zeros(arrays[0].shape, dtype=np.int64)
    for idx in np.ndindex(*out.shape):
        votes = Counter(int(arr[idx]) for arr in arrays)
        top = max(votes.values())
        out[idx] = min(label for label, c in votes.items() if c == top)
    return out


def onehot_maps_oracle(labels, ids):
    """Indicator probability maps, shape (len(ids), *labels.shape): map k
    is 1.0 at each voxel whose label is ids[k], else 0.0, by scalar loop."""
    labels = np.asarray(labels)
    out = np.zeros((len(ids),) + labels.shape, dtype=np.float64)
    for idx in np.ndindex(*labels.shape):
        for k, label_id in enumerate(ids):
            if int(labels[idx]) == label_id:
                out[(k,) + idx] = 1.0
    return out


def soft_probs_oracle(labels, ids, sigma_of):
    """The whole (len(ids), x, y, z) float64 stack of boundary-softened
    one-hot maps, by scalar loop over voxels. Map k is 1.0 where the label
    is ids[k]. A voxel with a differing 6-neighbour inside the volume moves
    sigma from its own label's map to that of the differing neighbour label
    seen most often (ties to the lowest id), sigma being the larger of the
    two labels' values in the dict ``sigma_of`` (absent ids: 0)."""
    labels = np.asarray(labels)
    pos = {label_id: k for k, label_id in enumerate(ids)}
    out = np.zeros((len(ids),) + labels.shape, dtype=np.float64)
    for idx in np.ndindex(*labels.shape):
        own = int(labels[idx])
        out[(pos[own],) + idx] = 1.0
        seen = Counter()
        for axis in range(3):
            for step in (-1, 1):
                n = list(idx)
                n[axis] += step
                if 0 <= n[axis] < labels.shape[axis] and int(labels[tuple(n)]) != own:
                    seen[int(labels[tuple(n)])] += 1
        if seen:
            other = max(seen, key=lambda label_id: (seen[label_id], -label_id))
            sigma = max(sigma_of.get(own, 0.0), sigma_of.get(other, 0.0))
            out[(pos[own],) + idx] = 1.0 - sigma
            out[(pos[other],) + idx] += sigma
    return out


def argmax_labels_oracle(maps, ids):
    """Label id of the largest of ``maps`` (shape (len(ids), x, y, z)) at
    each voxel, ties to the lowest id: ``np.argmax``, which keeps the
    first maximum, over the maps sorted by id. A NaN wins here, where the
    package's strict ``>`` never picks it."""
    order = np.argsort(ids, kind="stable")
    return np.asarray(ids, dtype=np.int64)[order][np.argmax(np.asarray(maps)[order], axis=0)]


def wls_oracle(X, w, y):
    """Weighted least squares by explicit normal equations."""
    X = np.asarray(X, dtype=np.float64)
    W = np.diag(np.asarray(w, dtype=np.float64))
    XtW = X.T @ W
    return np.linalg.solve(XtW @ X, XtW @ np.asarray(y, dtype=np.float64))


def t_cdf_quadrature(t, df, n_steps=2_000_000):
    """Two-sided t-distribution p-value by trapezoid integration of the
    density from |t| out to a far cutoff."""
    lo, hi = abs(float(t)), max(abs(float(t)) + 60.0, 120.0)
    x = np.linspace(lo, hi, n_steps)
    log_c = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
             - 0.5 * math.log(df * math.pi))
    dens = np.exp(log_c - ((df + 1) / 2.0) * np.log1p(x * x / df))
    tail = np.trapezoid(dens, x) if hasattr(np, "trapezoid") else np.trapz(dens, x)
    return 2.0 * tail


def cohort_csv_oracle(path):
    """Cohort CSV read whole and parsed row by row, cell by cell: the
    reader as it was before it streamed. Only the table it returns, and
    the ValidationError, are the package's own; its errors and line
    numbers are the ones the streaming reader must reproduce."""
    from segqc.stats import CohortTable
    from segqc.volumes import ValidationError

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))

    def rows():
        try:
            yield from reader
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None

    rows = rows()
    first = next(rows, None)
    if first is None:
        raise ValidationError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in first]
    required = ("subject_id", "age", "sex", "dx", "volume")
    known = set(required) | {"site", "cv", "mc_dice"}
    for col in required:
        if col not in header:
            raise ValidationError(f"{path}: header is missing required column {col}")
    unknown = [h for h in header if h not in known]
    if unknown:
        raise ValidationError(f"{path}: unknown columns {unknown}")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate columns in header")
    cols = {h: [] for h in header}
    for row in rows:
        lineno = reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        for h, cell in zip(header, row):
            cell = cell.strip()
            if h in ("subject_id", "site"):
                cols[h].append(cell)
            elif cell == "" and h in ("cv", "mc_dice"):
                cols[h].append(math.nan)
            elif cell == "":
                raise ValidationError(
                    f"{path}: line {lineno}, column {h}: required value is empty"
                )
            else:
                try:
                    cols[h].append(float(cell))
                except ValueError:
                    raise ValidationError(f"{path}: line {lineno}, column {h}: "
                                          f"cannot parse {cell!r} as a number") from None
    if not cols["subject_id"]:
        raise ValidationError(f"{path}: no data rows")
    return CohortTable(
        subject_ids=tuple(cols["subject_id"]),
        age=np.array(cols["age"]), sex=np.array(cols["sex"]), dx=np.array(cols["dx"]),
        volume=np.array(cols["volume"]),
        site=tuple(cols["site"]) if "site" in cols else None,
        cv=np.array(cols["cv"]) if "cv" in cols else None,
        mc_dice=np.array(cols["mc_dice"]) if "mc_dice" in cols else None,
    )


# -- NIfTI-1 headers, one struct call per field ------------------------------

NIFTI_BITPIX = {2: 8, 4: 16, 16: 32, 512: 16}  # datatype code -> bits per voxel


def nifti_header_oracle(buf):
    """Parse and check a NIfTI-1 header one ``struct`` call per field at its
    fixed offset, in the codec's order and with its messages: the reader
    as it was before the codec kept its layout in one table. Returns
    (NiftiHeaderSubset, OrientationInfo, byte order)."""
    import struct

    from segqc.nifti import NiftiFormatError, NiftiHeaderSubset, OrientationInfo

    if len(buf) < 348:
        raise NiftiFormatError(f"truncated header: {len(buf)} bytes, need 348")
    (le,) = struct.unpack_from("<i", buf, 0)
    (be,) = struct.unpack_from(">i", buf, 0)
    if le == 348:
        e = "<"
    elif be == 348:
        e = ">"
    else:
        raise NiftiFormatError(
            f"sizeof_hdr: got {le} (little-endian) / {be} (big-endian), need 348")
    magic, want = bytes(buf[344:348]), b"n+1\x00"
    if magic != want:
        raise NiftiFormatError(f"magic: got {magic!r}, need {want!r} (single-file NIfTI-1)")
    dim = struct.unpack_from(e + "8h", buf, 40)
    if dim[0] != 3:
        raise NiftiFormatError(f"dim[0]: got {dim[0]}, need 3 (3-D volumes only)")
    dims = dim[1:4]
    if min(dims) < 1:
        raise NiftiFormatError(f"dim[1..3]: got {dims}, every extent must be >= 1")
    (datatype,) = struct.unpack_from(e + "h", buf, 70)
    if datatype not in NIFTI_BITPIX:
        raise NiftiFormatError(
            f"datatype: code {datatype} unsupported; supported codes {sorted(NIFTI_BITPIX)}")
    (bitpix,) = struct.unpack_from(e + "h", buf, 72)
    if bitpix != NIFTI_BITPIX[datatype]:
        raise NiftiFormatError(
            f"bitpix: got {bitpix}, need {NIFTI_BITPIX[datatype]} for datatype {datatype}")
    pixdim = struct.unpack_from(e + "8f", buf, 76)
    spacing = pixdim[1:4]
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise NiftiFormatError(f"pixdim[1..3]: got {spacing}, need finite positive spacings")
    (vox_offset,) = struct.unpack_from(e + "f", buf, 108)
    if not math.isfinite(vox_offset) or vox_offset < 348:
        raise NiftiFormatError(f"vox_offset: got {vox_offset}, need >= 348")
    if vox_offset != math.floor(vox_offset):
        raise NiftiFormatError(f"vox_offset: got {vox_offset}, need a whole number of bytes")
    scl_slope, scl_inter = struct.unpack_from(e + "2f", buf, 112)
    if not math.isfinite(scl_slope) or not math.isfinite(scl_inter):
        raise NiftiFormatError(
            f"scl_slope/scl_inter: got ({scl_slope}, {scl_inter}), must be finite")
    qform_code, sform_code = struct.unpack_from(e + "2h", buf, 252)
    header = NiftiHeaderSubset(
        dims=dims, datatype=datatype, bitpix=bitpix, pixdim=spacing, vox_offset=vox_offset,
        scl_slope=scl_slope, scl_inter=scl_inter, magic=magic)
    orientation = OrientationInfo(
        qfac=pixdim[0], qform_code=qform_code, sform_code=sform_code,
        quatern=struct.unpack_from(e + "3f", buf, 256),
        qoffset=struct.unpack_from(e + "3f", buf, 268),
        srow_x=struct.unpack_from(e + "4f", buf, 280),
        srow_y=struct.unpack_from(e + "4f", buf, 296),
        srow_z=struct.unpack_from(e + "4f", buf, 312))
    return header, orientation, e


def nifti_bytes_oracle(data, spacing, orientation, byteorder="<"):
    """A single-file NIfTI-1 volume packed one ``struct`` call per field:
    352-byte header (vox_offset 352, scl 1/0), then ``data`` (uint8,
    int16, uint16 or float32) x-fastest in ``byteorder``."""
    import struct

    data = np.asarray(data)
    code = {"uint8": 2, "int16": 4, "float32": 16, "uint16": 512}[data.dtype.name]
    o, e = orientation, byteorder
    buf = bytearray(352)
    struct.pack_into(e + "i", buf, 0, 348)
    struct.pack_into(e + "8h", buf, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(e + "h", buf, 70, code)
    struct.pack_into(e + "h", buf, 72, NIFTI_BITPIX[code])
    struct.pack_into(e + "8f", buf, 76, o.qfac, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(e + "f", buf, 108, 352.0)
    struct.pack_into(e + "2f", buf, 112, 1.0, 0.0)
    struct.pack_into(e + "2h", buf, 252, o.qform_code, o.sform_code)
    struct.pack_into(e + "3f", buf, 256, *o.quatern)
    struct.pack_into(e + "3f", buf, 268, *o.qoffset)
    struct.pack_into(e + "4f", buf, 280, *o.srow_x)
    struct.pack_into(e + "4f", buf, 296, *o.srow_y)
    struct.pack_into(e + "4f", buf, 312, *o.srow_z)
    buf[344:348] = b"n+1\x00"
    return bytes(buf) + data.astype(data.dtype.newbyteorder(e)).tobytes(order="F")


# -- Huber IRLS, the whole weighted fit at every step ------------------------


def huber_oracle(table):
    """Huber IRLS as it ran before the solve was split from the inference:
    the whole weighted fit, covariance and p-values included, at every
    iteration, and the last fit returned with its diagnostics patched in.
    Reads the tuning constants from :mod:`segqc.stats` at call time, so a
    test may patch them."""
    from dataclasses import replace

    from segqc import stats
    from segqc.volumes import ValidationError

    X, columns = stats.design_matrix(table)
    y = table.volume
    n, p = X.shape
    if n - p < 2:
        raise ValidationError(f"huber fit needs n - p >= 2 (n={n}, p={p})")
    fit = stats._weighted_lstsq(X, y, np.ones(n), columns)
    beta = fit.beta
    resid = y - X @ beta
    if np.max(np.abs(resid)) == 0.0:
        return replace(fit, note="exact fit: all residuals zero, no reweighting")
    n_iter = 0
    converged = False
    for n_iter in range(1, stats.HUBER_MAX_ITER + 1):
        resid = y - X @ beta
        mad = float(np.median(np.abs(resid - np.median(resid))))
        scale = mad / stats.MAD_TO_SIGMA
        if scale == 0.0:
            spread = float(np.std(resid, ddof=1))
            if spread == 0.0:
                break
            scale = spread
        k = stats.HUBER_K * scale
        absr = np.abs(resid)
        w = np.where(absr > k, k / np.maximum(absr, np.finfo(float).tiny), 1.0)
        fit = stats._weighted_lstsq(X, y, w, columns)
        delta = float(np.max(np.abs(fit.beta - beta)))
        beta = fit.beta
        if delta < stats.HUBER_TOL:
            converged = True
            break
    note = None if converged else f"IRLS stopped after {n_iter} iterations without converging"
    return replace(fit, n_iter=n_iter, note=note)
