"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way on purpose: scalar
loops, set arithmetic, and textbook formulas, sharing no code with the
package so agreement between the two routes is evidence.
"""

import math
from collections import Counter

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
