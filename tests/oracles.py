"""Independent reference implementations the tests check against.

Nothing here shares code paths with the package: the QP oracle is an
interior-point method (the solver under test is coordinate ascent finished
by an active-set Newton step), the neighbor oracles are direct full scans,
the gradient oracle is central finite differences, the k-means++ oracle
recomputes every point's D² at every draw, the k-means oracle measures
every point against every centroid and re-averages every cluster at every
iteration, the prune oracle ranks by a full stable sort, the ingest oracle
loads every source whole and copies each split out of the fusion, and the
dense-SIFT oracle weights each window, one at a time, with the full 2-D
spatial weight.
"""

from __future__ import annotations

import numpy as np


def box_qp_max(Q: np.ndarray, C: float, rel_tol: float = 1e-10):
    """Maximize 1'a - 0.5 a'Qa over the box [0, C]^n.

    Log-barrier interior-point method with damped Newton steps.  Returns
    (optimal value, certified absolute duality-gap bound).
    """
    n = Q.shape[0]

    def f(a):
        return 0.5 * a @ Q @ a - a.sum()  # minimization form

    def phi(a, t):
        return t * f(a) - np.log(a).sum() - np.log(C - a).sum()

    a = np.full(n, C / 2.0)
    t = max(1.0, n / max(1.0, abs(f(a))))
    gap = 2.0 * n / t
    for _stage in range(200):
        for _newton in range(200):
            g = t * (Q @ a - 1.0) - 1.0 / a + 1.0 / (C - a)
            H = t * Q + np.diag(1.0 / a**2 + 1.0 / (C - a) ** 2)
            step = np.linalg.solve(H, -g)
            lam2 = float(-g @ step)
            if lam2 / 2.0 <= 1e-13 * max(1.0, t):
                break
            s, ph0, slope = 1.0, phi(a, t), float(g @ step)
            cand = a
            while s >= 1e-16:
                trial = a + s * step
                if (trial > 0.0).all() and (trial < C).all() and (
                    phi(trial, t) <= ph0 + 0.25 * s * slope
                ):
                    cand = trial
                    break
                s *= 0.5
            if cand is a:
                break
            a = cand
        gap = 2.0 * n / t
        if gap <= rel_tol * max(1.0, abs(f(a))):
            break
        t *= 20.0
    return float(-f(a)), gap


def svm_dual_gram(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed Gram matrix of the bias-augmented dual (matches the solver's
    stated formulation: bias as a constant 1 feature)."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    Z = Xa * y[:, None]
    return Z @ Z.T


def svm_dual_value(X: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    Q = svm_dual_gram(X, y)
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def brute_cosine_topk(rows: np.ndarray, q: np.ndarray, k: int):
    """Full-scan cosine ranking with the package's tie rule, computed with
    plain per-row arithmetic."""
    qn = float(np.sqrt(np.sum(q * q)))
    scored = []
    for i, row in enumerate(rows):
        rn = float(np.sqrt(np.sum(row * row)))
        if qn == 0.0 or rn == 0.0:
            sim = 0.0
        else:
            sim = float(np.sum(row * q)) / (rn * qn)
        scored.append((-sim, i))
    scored.sort()
    return [(i, -negsim) for negsim, i in scored[: min(k, len(rows))]]


def brute_nn_euclidean(points: np.ndarray, q: np.ndarray):
    """Exact nearest neighbor by full scan; ties to the lowest index."""
    diffs = points - q
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    best = int(np.argmin(d2))  # argmin returns the first (lowest) index
    return best, float(np.sqrt(d2[best]))


def kmeanspp_full(points: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding that updates every point's D² at every draw: the
    indices chosen, drawing from ``rng`` as the package does."""
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at chosen points; take lowest unchosen index
            mask = np.ones(n, dtype=bool)
            mask[chosen[:j]] = False
            chosen[j] = int(np.flatnonzero(mask)[0])
        else:
            chosen[j] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, np.sum((points - points[chosen[j]]) ** 2, axis=1))
    return chosen


def search_shift(values: np.ndarray) -> int:
    """The exponent of the power of two s by which the package scales a
    nearest-centroid search: 0 while the largest magnitude lies in
    [2^-32, 2^32] (or is 0), else the one that brings it into [1/2, 1)."""
    top = float(np.max(np.abs(values), initial=0.0))
    if top == 0.0 or 2.0**-32 <= top <= 2.0**32:
        return 0
    return -int(np.frexp(top)[1])


def brute_words(points: np.ndarray, centroids: np.ndarray, shift: int) -> np.ndarray:
    """Each point's visual word by a full scan: the lowest-id argmin of the
    elementwise squared distance Σ(s·c - s·p)², s = 2**shift."""
    cents = np.ldexp(centroids, shift)
    return np.array([int(np.argmin(np.sum((cents - p) ** 2, axis=1)))
                     for p in np.ldexp(points, shift)], dtype=np.intp)


def kmeans_full(points: np.ndarray, k: int, seed, max_iters: int = 100):
    """Lloyd's k-means, k < n, that measures every point against every
    centroid and re-averages every non-empty cluster at every iteration:
    (centroids, iterations).  It keeps the package's k-means++ draws, its
    word (the lowest-id argmin of the elementwise squared distance
    Σ(s·c - s·p)², s the power of two ``search_shift`` gives the points),
    its empty-cluster repair and its stop rule, so a loop that skips only
    the points whose word cannot change agrees with it bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = points[kmeanspp_full(points, k, np.random.default_rng(seed))]
    shift = search_shift(points)
    scaled = np.ldexp(points, shift)
    assign, seen = np.full(n, -1), set()
    for iteration in range(1, max_iters + 1):
        d2 = ((np.ldexp(centroids, shift)[None, :, :] - scaled[:, None, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign) or new_assign.tobytes() in seen:
            break
        seen.add(new_assign.tobytes())
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        for c in np.flatnonzero(counts):
            centroids[c] = points[assign == c].mean(axis=0)
        for e in np.flatnonzero(counts == 0):
            costs = np.linalg.norm(points - centroids[assign], axis=1)
            per_cluster = np.zeros(k)
            np.add.at(per_cluster, assign, costs**2)
            donor = int(np.argmax(per_cluster))
            donor_rows = np.flatnonzero(assign == donor)
            far = donor_rows[int(np.argmax(costs[donor_rows]))]
            centroids[e] = points[far]
            assign[far] = e
            centroids[donor] = points[assign == donor].mean(axis=0)
    return centroids, iteration


def spatial_weights(bin_size: int, n_bins: int) -> np.ndarray:
    """(n_bins^2, window^2) map from window pixels to spatial bins:
    bilinear bin interpolation times a Gaussian window."""
    side = n_bins * bin_size
    p = np.arange(side) + 0.5
    u = p / bin_size - 0.5  # bin coordinates; centers at 0..n_bins-1
    tri = np.maximum(0.0, 1.0 - np.abs(u[None, :] - np.arange(n_bins)[:, None]))
    sigma = side / 2.0
    gauss = np.exp(-((p - side / 2.0) ** 2) / (2.0 * sigma**2))
    axis = tri * gauss[None, :]  # (n_bins, side)
    w = np.einsum("ri,cj->rcij", axis, axis)
    return w.reshape(n_bins * n_bins, side * side)


def brute_dense_sift(img: np.ndarray, cfg):
    """(vectors, x, y, scale) of dense SIFT with ``cfg`` (a
    ``DenseSiftConfig``): each pixel's gradient magnitude split between its
    two nearest orientation bins, then every window in a plain loop, its
    (orientations, side, side) block weighted by ``spatial_weights``, laid
    out (row bin, column bin, orientation); L2-normalised, clamped at 0.2
    and renormalised, or zero below the contrast threshold."""
    img01 = img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else img.astype(np.float64)
    n_orient = cfg.orientations
    gy, gx = np.gradient(img01)
    pos = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) * n_orient / (2.0 * np.pi)
    mag, lo = np.hypot(gx, gy), np.floor(pos)
    omaps = np.zeros((n_orient,) + img01.shape)
    for (r, c), m in np.ndenumerate(mag):
        frac = pos[r, c] - lo[r, c]
        omaps[int(lo[r, c]) % n_orient, r, c] += m * (1.0 - frac)
        omaps[(int(lo[r, c]) + 1) % n_orient, r, c] += m * frac
    h, w = img01.shape
    vectors, xs, ys, scales = [], [], [], []
    for b in cfg.bin_sizes:
        side = cfg.spatial_bins * b
        weights = spatial_weights(b, cfg.spatial_bins)
        for y0 in range(0, h - side + 1, cfg.step):
            for x0 in range(0, w - side + 1, cfg.step):
                window = omaps[:, y0:y0 + side, x0:x0 + side].reshape(n_orient, side * side)
                vec = (weights[:, None, :] * window[None]).sum(axis=2).ravel()
                norm = np.sqrt(np.sum(vec * vec))
                if norm < cfg.contrast_threshold:
                    vec = np.zeros_like(vec)
                else:
                    vec = np.minimum(vec / norm, 0.2)
                    vec /= np.sqrt(np.sum(vec * vec))
                vectors.append(vec)
                xs.append(x0 + side // 2)
                ys.append(y0 + side // 2)
                scales.append(b)
    return np.array(vectors), np.array(xs), np.array(ys), np.array(scales)


def prune_mask_sorted(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep-mask zeroing the first ceil(sparsity*count) entries of a stable
    sort of |weights| (NaN last, ties by flat index)."""
    weights = np.asarray(weights)
    n_zero = int(np.ceil(sparsity * weights.size - 1e-12))
    mask = np.ones(weights.size, dtype=bool)
    if n_zero:
        mask[np.argsort(np.abs(weights).ravel(), kind="stable")[:n_zero]] = False
    return mask.reshape(weights.shape)


def finite_diff_grads(model, X: np.ndarray, y: np.ndarray, h: float = 1e-6):
    """Central finite differences of the model loss for every parameter.

    Returns gradients in the same (W, b) per-layer layout the model uses.
    """
    grads = []
    for layer in model.layers:
        pair = []
        for arr in (layer.W, layer.b):
            g = np.zeros_like(arr)
            flat, gf = arr.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = model.loss_and_grads(X, y)
                flat[i] = orig - h
                lm, _ = model.loss_and_grads(X, y)
                flat[i] = orig
                gf[i] = (lp - lm) / (2.0 * h)
            pair.append(g)
        grads.append(tuple(pair))
    return grads


def max_rel_grad_err(analytic, numeric) -> float:
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def ingest_by_copies(manifest, seed=None) -> dict:
    """Split name -> labeled matrix, by the composition ingest replaced:
    load each source whole (``load_features``), gather every source into the
    first source's order and stack the blocks, each normalized whole where
    its flag says so (then the fusion too, under ``renormalize``), attach
    labels, and copy each split out with ``take``, in the first source's
    order; ``cap`` then downsamples the train split."""
    from locallearn import core
    from locallearn.features import l2_normalize_rows

    seed = manifest.seed if seed is None else seed
    label_map = core.LabelMap.from_file(manifest.labelmap_path)
    labels = core.read_labels(manifest.labels_path)
    splits = core.read_splits(manifest.splits_path)
    loaded = [(core.load_features(s.path, expected_dim=s.expected_dim), s.normalize)
              for s in manifest.sources]
    order = loaded[0][0].sample_ids
    blocks = []
    for matrix, normalize in loaded:
        block = matrix.values[[matrix.sample_ids.index(sid) for sid in order]]
        blocks.append(l2_normalize_rows(block) if normalize else block)
    values = np.hstack(blocks)
    if manifest.renormalize:
        values = l2_normalize_rows(values)
    fused = core.FeatureMatrix(values, order)
    assert set(splits) == set(order), "the splits must name the sources' ids"
    fused = core.attach_labels(fused, labels, label_map)
    out = {}
    for split in core.SPLIT_NAMES:
        rows = [i for i, sid in enumerate(order) if splits[sid] == split]
        if rows:
            out[split] = fused.take(rows)
    if "train" in out and manifest.cap is not None:
        out["train"] = core.balanced_downsample(out["train"], manifest.cap, seed)
    return out
