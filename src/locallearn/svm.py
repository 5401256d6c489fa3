"""Soft-margin linear SVM (L1 hinge) and one-versus-all multiclass wrapper.

The solver is dual coordinate ascent over the box-constrained dual with a
random permutation per pass.  The bias is handled by augmenting every
sample with a constant feature of value 1, so the bias is regularized and a
generic QP solver on the augmented dual reproduces the same optimum.

Training takes row sets of one matrix (all rows, or one neighbourhood per
query) with one problem per class.  Problems of up to ``_GRAM_LIMIT``
samples step in lockstep over Gram matrices built once per set, and no
result depends on which others share the call.  Larger problems run one by
one in a feature-space loop with shrinking.

Models serialize to a text format: header line ``#locallearn-ova v1``,
then one ``class_id b w1 ... wD`` line per trained class.  Comment lines
starting with ``#`` after the header are ignored on read; the writer uses
them to embed class names and the degenerate constant-class marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import FeatureMatrix, read_lines
from .errors import (
    DimMismatch,
    MalformedFile,
    NoTrainedClasses,
    SingleClass,
    ValidationError,
)

# Two loops, chosen by sample count alone, so identical data always takes
# the identical path.  Problems of up to _GRAM_LIMIT samples (local
# neighbourhoods, small training sets) step in lockstep over one Gram matrix
# per row set.  Larger ones (fused global training, n >= 3,000) run one at a
# time in the feature-space loop: it shrinks, which the lockstep core does
# not, and their 3,000 x 3,000 Gram matrix would add 72 MB to a peak RSS of
# 238 MB.  The benchmark has workloads on both sides of the limit.
_GRAM_LIMIT = 2048  # samples
_LOOP_LIMIT = 3  # live problems the lockstep core steps one at a time


@dataclass(frozen=True)
class SvmConfig:
    """Binary solver settings.

    C defaults to 1 (individual-feature models); combined/fused models use
    C=100.  ``tolerance`` bounds the worst projected-gradient (KKT)
    violation at convergence.
    """

    C: float = 1.0
    tolerance: float = 1e-4
    max_passes: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.C <= 0:
            raise ValidationError(f"C must be positive, got {self.C}")
        if self.tolerance <= 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")


@dataclass
class SvmModel:
    """Weights and bias of one binary hyperplane."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
            raise ValidationError("model parameters must be finite")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def decision(model: SvmModel, x: np.ndarray) -> float:
    """Signed distance surrogate w.x + b."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.w.shape:
        raise DimMismatch(f"x has dim {x.shape}, model expects {model.w.shape}")
    return float(model.w @ x + model.b)


def _as_values(X) -> np.ndarray:
    if isinstance(X, FeatureMatrix):
        return X.values
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    return X


def train_binary(X, y, cfg: SvmConfig) -> SvmModel:
    """Train one binary L1-hinge SVM; deterministic given (data, cfg, seed)."""
    model, _, _ = train_binary_full(X, y, cfg)
    return model


def train_binary_full(X, y, cfg: SvmConfig) -> tuple[SvmModel, np.ndarray, dict]:
    """Like train_binary but also returns the dual variables and solver info."""
    Xv = _as_values(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (Xv.shape[0],):
        raise ValidationError("y length does not match X")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("y entries must be -1 or +1")
    if np.unique(y).size < 2:
        raise SingleClass("training data contains a single class")
    [(W, alphas, infos)] = _solve_sets(Xv, [(slice(None), y[None, :])], cfg)
    return SvmModel(W[0, :-1], float(W[0, -1])), alphas[0], infos[0]


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _kkt_gap(alpha: np.ndarray, G: np.ndarray, C: float) -> np.ndarray:
    """Largest projected-gradient violation along the last axis."""
    pg = np.where(alpha == 0.0, np.minimum(G, 0.0), np.where(alpha == C, np.maximum(G, 0.0), G))
    return np.abs(pg).max(axis=-1)


def _solve_dual(Xa: np.ndarray, y: np.ndarray, cfg: SvmConfig):
    """Dual coordinate ascent with shrinking (per-pass random permutation),
    one problem, gradients taken from the primal weights.

    Convergence is certified against the true projected gradient of the
    full variable set, never against the pass-sampled extremes alone
    (those mix gradients taken at different alpha states).
    """
    n = Xa.shape[0]
    C, tol = float(cfg.C), float(cfg.tolerance)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(Xa.shape[1])
    ys, qdiag = y.tolist(), np.einsum("ij,ij->i", Xa, Xa).tolist()
    alpha = [0.0] * n
    active = list(range(n))
    hi_bound, lo_bound = np.inf, -np.inf
    converged = False
    passes = 0
    final_gap = np.inf
    while passes < cfg.max_passes:
        passes += 1
        perm = rng.permutation(len(active))
        survivors = []
        pg_max, pg_min = -np.inf, np.inf
        for i in [active[j] for j in perm]:
            a_i = alpha[i]
            g = ys[i] * float(w @ Xa[i]) - 1.0
            if a_i == 0.0:
                if g > hi_bound:
                    continue  # shrink
                pg = g if g < 0.0 else 0.0
            elif a_i == C:
                if g < lo_bound:
                    continue  # shrink
                pg = g if g > 0.0 else 0.0
            else:
                pg = g
            survivors.append(i)
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if pg > 1e-12 or pg < -1e-12:
                a_new = min(max(a_i - g / qdiag[i], 0.0), C)
                delta = a_new - a_i
                if delta != 0.0:
                    alpha[i] = a_new
                    w += (delta * ys[i]) * Xa[i]
        if pg_max == -np.inf:  # everything shrunk this pass
            pg_max, pg_min = 0.0, 0.0
        gap = pg_max - pg_min
        if gap <= tol:
            if len(active) < n:
                # Unshrink and keep iterating over the full variable set.
                active = list(range(n))
                hi_bound, lo_bound = np.inf, -np.inf
                continue
            g_all = y * (Xa @ w) - 1.0
            final_gap = float(_kkt_gap(np.asarray(alpha), g_all, C))
            if final_gap <= tol:
                converged = True
                break
            continue
        active = survivors if survivors else list(range(n))
        hi_bound = pg_max if pg_max > 0.0 else np.inf
        lo_bound = pg_min if pg_min < 0.0 else -np.inf
        final_gap = gap
    info = {"passes": passes, "converged": converged, "kkt_gap": float(final_gap)}
    return np.asarray(alpha), info


def _gram_ascent(K: np.ndarray, Y: np.ndarray, owner: np.ndarray, cfg: SvmConfig):
    """Dual coordinate ascent on many problems in lockstep.

    Problem p has labels Y[p] on the samples with bias-augmented Gram
    matrix K[owner[p]].  Pass p walks the p-th permutation of
    ``rng(cfg.seed)`` for every problem, each step elementwise with
    V = K(alpha * y) kept exact, so a problem's iterates never depend on
    the others.  After each pass a problem whose KKT gap is within
    ``tolerance`` is frozen and dropped; one left at ``max_passes`` reports
    converged=False.
    """
    C, tol = float(cfg.C), float(cfg.tolerance)
    rng = np.random.default_rng(cfg.seed)
    P, n = Y.shape
    alpha, gaps = np.zeros((P, n)), np.full(P, np.inf)
    passes, converged = np.zeros(P, dtype=np.int64), np.zeros(P, dtype=bool)
    live, A, V = np.arange(P), np.zeros((P, n)), np.zeros((P, n))
    inv_diag = 1.0 / np.einsum("bii->bi", K)[owner]
    for p in range(1, cfg.max_passes + 1):
        order = rng.permutation(n)
        if live.size > _LOOP_LIMIT:
            for i in order:
                y, a = Y[:, i], A[:, i]
                a_new = a - (y * V[:, i] - 1.0) * inv_diag[:, i]
                np.clip(a_new, 0.0, C, out=a_new)
                step = (a_new - a) * y
                A[:, i] = a_new
                V += step[:, None] * K[owner, i]
        else:
            # The same arithmetic on Python floats, one problem at a time:
            # for a few problems numpy call overhead outweighs the batching.
            order = order.tolist()
            for j in range(live.size):
                a, y, inv = A[j].tolist(), Y[j].tolist(), inv_diag[j].tolist()
                v, k = V[j], K[owner[j]]
                for i in order:
                    a_new = min(max(a[i] - (y[i] * v.item(i) - 1.0) * inv[i], 0.0), C)
                    if a_new != a[i]:
                        v += ((a_new - a[i]) * y[i]) * k[i]
                        a[i] = a_new
                A[j] = a
        gap = _kkt_gap(A, Y * V - 1.0, C)
        done = gap <= tol
        alpha[live], passes[live], gaps[live], converged[live] = A, p, gap, done
        if done.any():
            live, A, V, Y, owner, inv_diag = (
                x[~done] for x in (live, A, V, Y, owner, inv_diag))
            if not live.size:
                break
    return alpha, [
        {"passes": int(done_at), "converged": bool(c), "kkt_gap": float(g)}
        for done_at, c, g in zip(passes, converged, gaps)
    ]


def _solve_sets(X: np.ndarray, sets, cfg: SvmConfig):
    """Solve ``sets``, pairs (rows, Y) of one size: ``rows`` picks rows of X
    (an index array or a slice), Y holds one +/-1 label row per problem.
    Returns per set (augmented weights, alphas, infos), one row or entry
    per problem.  Rows are gathered one set at a time."""
    if not sets:
        return []
    n = sets[0][1].shape[1]
    sizes = [Y.shape[0] for _, Y in sets]
    if n <= _GRAM_LIMIT:
        K = np.empty((len(sets), n, n))
        for b, (rows, _) in enumerate(sets):
            Xa = _augment(X[rows])
            K[b] = Xa @ Xa.T
        owner = np.repeat(np.arange(len(sets)), sizes)
        alphas, infos = _gram_ascent(K, np.vstack([Y for _, Y in sets]), owner, cfg)
        del K
    else:
        # One augmented copy per set, freed before the weights are recovered.
        solved = [_solve_dual(Xa, y, cfg)
                  for rows, Y in sets for Xa in [_augment(X[rows])] for y in Y]
        alphas, infos = np.array([a for a, _ in solved]), [info for _, info in solved]
    out, start = [], 0
    for (rows, Y), size in zip(sets, sizes):
        Xa = _augment(X[rows])
        part = alphas[start:start + size]
        W = np.array([(a * y) @ Xa for a, y in zip(part, Y)])
        out.append((W, part, infos[start:start + size]))
        start += size
    return out


@dataclass
class OvaModel:
    """One binary model per trained class, keyed by class id.

    A training set with a single distinct class produces the degenerate
    constant model: no hyperplanes, every prediction is that class with a
    +inf decision sentinel.
    """

    models: dict[int, SvmModel] = field(default_factory=dict)
    n_classes: int = 0
    class_names: tuple[str, ...] | None = None
    constant_class: int | None = None

    @property
    def trained_classes(self) -> tuple[int, ...]:
        if self.constant_class is not None:
            return (self.constant_class,)
        return tuple(sorted(self.models))

    @property
    def dim(self) -> int | None:
        for m in self.models.values():
            return m.dim
        return None


def train_ova(
    X,
    labels,
    cfg: SvmConfig,
    n_classes: int | None = None,
    class_names: Sequence[str] | None = None,
) -> OvaModel:
    """Train one binary model per class present in ``labels``.

    Classes absent from the data stay untrained (decision -inf at predict
    time).  A single-class training set short-circuits to the constant
    model rather than invoking the solver.
    """
    Xv = _as_values(X)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (Xv.shape[0],):
        raise ValidationError("labels length does not match X")
    if labels.size == 0:
        raise ValidationError("cannot train on an empty dataset")
    [(model, _)] = train_ova_sets(Xv, labels, [slice(None)], cfg)
    if n_classes is not None:
        model.n_classes = n_classes
    model.class_names = tuple(class_names) if class_names is not None else None
    return model


def train_ova_sets(X, labels, row_sets, cfg: SvmConfig) -> list[tuple[OvaModel, list[dict]]]:
    """One OvA model per row set of X (an index array, or a slice), with the
    solver info of each of its binary problems.

    The problems of all sets go to the solver in one call.  Each set's rows
    enter its problems in the order given, so a set of every row in order
    trains exactly what ``train_ova`` does.  A single-class set gets the
    constant model and no solve.
    """
    Xv, labels = _as_values(X), np.asarray(labels, dtype=np.int64)
    classes = [np.unique(labels[rows]) for rows in row_sets]
    out = [(OvaModel(n_classes=int(c.max()) + 1, constant_class=int(c[0])), []) for c in classes]
    multi = [j for j, c in enumerate(classes) if c.size > 1]
    # Two classes pose one dual (y -> -y leaves (y y')K alone): solve for
    # the second, and the first's weights are the negation.
    sets = []
    for j in multi:
        solved = classes[j][1:] if classes[j].size == 2 else classes[j]
        sets.append((row_sets[j], np.where(labels[row_sets[j]] == solved[:, None], 1.0, -1.0)))
    for j, (W, _, infos) in zip(multi, _solve_sets(Xv, sets, cfg)):
        if classes[j].size == 2:
            W, infos = np.vstack([-W, W]), infos * 2
        models = {int(c): SvmModel(w[:-1], float(w[-1])) for c, w in zip(classes[j], W)}
        out[j] = (OvaModel(models=models, n_classes=int(classes[j].max()) + 1), infos)
    return out


def decisions_ova(model: OvaModel, x: np.ndarray) -> dict[int, float]:
    """Per-trained-class decision values for one sample."""
    if model.constant_class is not None:
        return {model.constant_class: np.inf}
    if not model.models:
        raise NoTrainedClasses("OvA model has no trained classes")
    return {cls: decision(model.models[cls], x) for cls in sorted(model.models)}


def predict_ova(model: OvaModel, x: np.ndarray) -> int:
    """Argmax of decision values over trained classes; ties break to the
    lowest class id; untrained classes behave as decision -inf."""
    decs = decisions_ova(model, x)
    best_cls = None
    best_val = -np.inf
    for cls in sorted(decs):
        if decs[cls] > best_val:
            best_cls, best_val = cls, decs[cls]
    return int(best_cls)


def predict_ova_batch(model: OvaModel, X) -> np.ndarray:
    """Row-wise predict_ova.  Implemented as a plain map over rows so batch
    and single-sample paths produce bit-identical decision values."""
    Xv = _as_values(X)
    return np.array([predict_ova(model, row) for row in Xv], dtype=np.int64)


def save_ova(model: OvaModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#locallearn-ova v1\n")
        fh.write(f"#n_classes {model.n_classes}\n")
        if model.class_names is not None:
            fh.write("#classes " + ",".join(model.class_names) + "\n")
        if model.constant_class is not None:
            fh.write(f"#constant {model.constant_class}\n")
        for cls in sorted(model.models):
            m = model.models[cls]
            parts = [str(cls), repr(float(m.b))] + [repr(v) for v in m.w.tolist()]
            fh.write(" ".join(parts) + "\n")


def load_ova(path) -> OvaModel:
    lines = read_lines(path)
    if not lines or lines[0].strip() != "#locallearn-ova v1":
        raise MalformedFile(f"{path}: bad model header")
    n_classes = 0
    class_names: tuple[str, ...] | None = None
    constant: int | None = None
    models: dict[int, SvmModel] = {}
    dim: int | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            if line.startswith("#"):
                key, _, value = line.partition(" ")
                if key in ("#n_classes", "#classes", "#constant") and not value.strip():
                    raise MalformedFile(f"{path}:{lineno}: {key} has no value")
                if key == "#n_classes":
                    n_classes = int(value)
                elif key == "#classes":
                    class_names = tuple(value.strip().split(","))
                elif key == "#constant":
                    constant = int(value)
                continue
            parts = line.split()
            if len(parts) < 3:
                raise MalformedFile(f"{path}:{lineno}: expected 'class_id b w1 ... wD'")
            cls = int(parts[0])
            b = float(parts[1])
            w = np.array([float(p) for p in parts[2:]])
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}")
        if dim is None:
            dim = w.shape[0]
        elif w.shape[0] != dim:
            raise MalformedFile(f"{path}:{lineno}: inconsistent weight dim")
        models[cls] = SvmModel(w, b)
    if not n_classes:
        ids = list(models) + ([constant] if constant is not None else [])
        n_classes = max(ids) + 1 if ids else 0
    return OvaModel(
        models=models,
        n_classes=n_classes,
        class_names=class_names,
        constant_class=constant,
    )
