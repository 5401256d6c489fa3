"""Independent reference implementations the tests check against.

Nothing here shares code paths with the package: the QP oracle is an
interior-point method (the solver under test is coordinate ascent), the
neighbor oracles are direct full scans, the gradient oracle is central
finite differences, the k-means++ oracle recomputes every point's D² at
every draw, the prune oracle ranks by a full stable sort, and the ingest
oracle loads every source whole and copies each split out of the fusion.
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
