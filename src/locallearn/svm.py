"""Soft-margin linear SVM (L1 hinge) and one-versus-all multiclass wrapper.

The bias is handled by augmenting every sample with a constant feature of
value 1, so the bias is regularized and a generic QP solver on the
augmented dual reproduces the same optimum.

Each dual is finished, where it can be, by an exact active-set Newton
step (one pass each): it puts every index at 0, at C or free, solves the
free block with the bounded ones fixed, and stops when the sets repeat.
Its result is kept only on a certificate, 0 <= alpha <= C and a KKT gap
within ``tolerance``; otherwise dual coordinate ascent solves the problem.

Training takes one row set of a matrix (all rows, or one query's
neighbourhood) and poses one problem per class.  A set of up to
``_GRAM_LIMIT`` rows gets one augmented Gram matrix, on which Newton
starts every problem from alpha = 0.  A problem it does not certify, and
every problem of a larger set, is solved by dual coordinate ascent in
feature space (Hsieh et al., ICML 2008) on the same rows, keeping the
passes already spent and retrying Newton every ``_WARM_PASSES`` passes.

A one-vs-all model is the ascending ids of its trained classes, a weight
matrix with one row per class and a bias vector.  ``decisions`` computes
every decision value, for local, global and command-line prediction alike.

Models serialize to a text format: header line ``#locallearn-ova v1``,
then one ``class_id b w1 ... wD`` line per trained class.  Comment lines
starting with ``#`` after the header are ignored on read; the writer uses
them to embed class names and the degenerate constant-class marker.  A
repeated or out-of-range class id, or weight lines in a constant model,
are ``MalformedFile``.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# The path is chosen by sample count alone, so identical data always takes
# the identical path.  A Gram matrix for fused global training (n >= 3,000)
# would add 72 MB to a peak RSS of 194 MB; the benchmark has workloads on
# both sides of the limit.
_GRAM_LIMIT = 2048  # samples
_WARM_PASSES = 10  # coordinate-ascent passes between Newton finishes
_NEWTON_STEPS = 25  # active-set steps before falling back to coordinate ascent


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
        for name, value in (("C", self.C), ("tolerance", self.tolerance)):
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        if self.max_passes < 1:
            raise ValidationError(f"max_passes must be >= 1, got {self.max_passes}")


def _as_values(X) -> np.ndarray:
    if isinstance(X, FeatureMatrix):
        return X.values
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    return X


def train_binary(X, y, cfg: SvmConfig) -> tuple[np.ndarray, float, np.ndarray, dict]:
    """Train one binary L1-hinge SVM; deterministic given (data, cfg, seed).
    Returns the weights, the bias, the dual variables and the solver info."""
    Xv = _as_values(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (Xv.shape[0],):
        raise ValidationError("y length does not match X")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("y entries must be -1 or +1")
    if np.unique(y).size < 2:
        raise SingleClass("training data contains a single class")
    W, alphas, infos = _solve_rows(Xv, slice(None), y[None, :], cfg)
    return W[0, :-1], float(W[0, -1]), alphas[0], infos[0]


def _kkt_gap(alpha: np.ndarray, G: np.ndarray, C: float) -> np.ndarray:
    """Largest projected-gradient violation along the last axis, infinite outside [0, C]."""
    pg = np.where(alpha == 0.0, np.minimum(G, 0.0), np.where(alpha == C, np.maximum(G, 0.0), G))
    return np.where((alpha < 0.0) | (alpha > C), np.inf, np.abs(pg)).max(axis=-1)


def _newton(alpha: np.ndarray, grad, block, diag, width: int, cfg: SvmConfig, steps: int):
    """Active-set Newton finish of one dual from a feasible ``alpha``, given
    ``grad(a)`` = Q a - 1, ``block(F)`` = Q_FF and ``diag`` = diag(Q).  A step
    puts index i at 0 where alpha_i - g_i / Q_ii <= 0, at C where it is >= C,
    and solves for the free rest; at most ``steps`` solves, none with more
    free indices than ``width`` (Q_FF is then singular).  Returns the
    certified alpha, or the given one, and the info."""
    C, start, g, sets = float(cfg.C), alpha, grad(alpha), None
    for solves in range(steps + 1):
        z = alpha - g / diag
        new = np.where(z <= 0.0, 0, np.where(z >= C, 2, 1))
        if sets is not None and np.array_equal(new, sets):
            gap = float(_kkt_gap(alpha, g, C))
            if gap <= cfg.tolerance:
                return alpha, {"passes": solves, "converged": True, "kkt_gap": gap}
            break
        free = np.flatnonzero(new == 1)
        if solves == steps or free.size > width:
            break
        alpha = np.where(new == 2, C, 0.0)
        try:
            alpha[free] = np.linalg.solve(block(free), -grad(alpha)[free])
        except np.linalg.LinAlgError:
            return start, {"passes": solves + 1, "converged": False, "kkt_gap": np.inf}
        g, sets = grad(alpha), new
    return start, {"passes": solves, "converged": False, "kkt_gap": np.inf}


def _solve_alone(X: np.ndarray, y: np.ndarray, cfg: SvmConfig, passes: int = 0):
    """Dual coordinate ascent on one problem in feature space from alpha = 0,
    ``passes`` already spent, the bias kept apart so that X is not copied.
    A pass visits, in a random order, every index that is free or has a
    nonzero projected gradient, which after the pass certifies convergence.
    Every ``_WARM_PASSES`` passes Newton is tried, with Q_FF built from the
    free rows alone."""
    n, C = X.shape[0], float(cfg.C)
    rng = np.random.default_rng(cfg.seed)
    a, w, bias, g = np.zeros(n), np.zeros(X.shape[1]), 0.0, -np.ones(n)
    diag = np.einsum("ij,ij->i", X, X) + 1.0
    ys, qdiag = y.tolist(), diag.tolist()

    def grad(alpha):
        ay = alpha * y
        return y * (X @ (ay @ X) + ay.sum()) - 1.0

    def block(F):
        Z = X[F]
        Z *= y[F, None]
        return Z @ Z.T + np.outer(y[F], y[F])

    sweeps = 0
    while passes < cfg.max_passes:
        if sweeps and sweeps % _WARM_PASSES == 0 and passes < cfg.max_passes - 1:
            done, info = _newton(a, grad, block, diag, X.shape[1] + 1, cfg,
                                 min(_NEWTON_STEPS, cfg.max_passes - passes - 1))
            passes += info["passes"]
            if info["converged"]:
                return done, {**info, "passes": passes}
        visit = np.flatnonzero(np.where(a == 0.0, g < 0.0, np.where(a == C, g > 0.0, True)))
        al = a.tolist()
        for i in visit[rng.permutation(visit.size)].tolist():
            a_new = min(max(al[i] - (ys[i] * (float(w @ X[i]) + bias) - 1.0) / qdiag[i], 0.0), C)
            if a_new != al[i]:
                step = (a_new - al[i]) * ys[i]
                w += step * X[i]
                bias += step
                al[i] = a_new
        a, g, passes, sweeps = np.array(al), y * (X @ w + bias) - 1.0, passes + 1, sweeps + 1
        gap = float(_kkt_gap(a, g, C))
        info = {"passes": passes, "converged": gap <= cfg.tolerance, "kkt_gap": gap}
        if info["converged"]:
            break
    return a, info


def _solve_rows(X: np.ndarray, rows, Y: np.ndarray, cfg: SvmConfig):
    """Solve the problems on ``rows`` of X (an index array or a slice), one
    per +/-1 label row of Y.  Returns the augmented weights and alphas, one
    row per problem, and the infos."""
    Xs = X[rows]
    n = Xs.shape[0]
    if n <= _GRAM_LIMIT:
        Xa = np.hstack([Xs, np.ones((n, 1))])
        K = Xa @ Xa.T
        steps = min(_NEWTON_STEPS, cfg.max_passes - 1)
        solved = []
        for y in Y:
            alpha, info = _newton(np.zeros(n), lambda a: y * (K @ (a * y)) - 1.0,
                                  lambda F: np.outer(y[F], y[F]) * K[np.ix_(F, F)],
                                  np.diagonal(K), X.shape[1] + 1, cfg, steps)
            solved.append((alpha, info) if info["converged"] else _solve_alone(Xs, y, cfg, info["passes"]))
    else:
        solved = [_solve_alone(Xs, y, cfg) for y in Y]
    alphas = np.array([a for a, _ in solved])
    W = np.array([np.append(ay @ Xs, ay.sum()) for ay in alphas * Y])
    return W, alphas, [info for _, info in solved]


@dataclass
class OvaModel:
    """A one-vs-all linear model: the trained class ids in ascending order,
    one row of ``W`` and one entry of ``b`` per class.  Classes absent from
    training have no row, so they are never predicted (decision -inf).

    A training set with a single distinct class produces the degenerate
    constant model: ``classes`` holds that class and ``W`` has no columns;
    every prediction is that class with a +inf decision sentinel.
    """

    classes: np.ndarray  # (m,) int64, ascending
    W: np.ndarray  # (m, d), C-contiguous
    b: np.ndarray  # (m,)
    n_classes: int = 0
    class_names: tuple[str, ...] | None = None
    constant_class: int | None = None

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        m = self.classes.shape
        if len(m) != 1 or self.W.ndim != 2 or self.W.shape[:1] != m or self.b.shape != m:
            raise ValidationError("classes (m,), W (m, d) and b (m,) disagree in shape")
        if np.any(np.diff(self.classes) <= 0):
            raise ValidationError("classes must be ascending and distinct")
        if self.constant_class is not None and self.classes.tolist() != [self.constant_class]:
            raise ValidationError("a constant model has its class and no other")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValidationError("model parameters must be finite")


def _constant(cls: int, n_classes: int, class_names=None) -> OvaModel:
    return OvaModel(np.array([cls]), np.zeros((1, 0)), np.zeros(1), n_classes, class_names, cls)


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
    if labels.min() < 0 or (n_classes is not None and labels.max() >= n_classes):
        raise ValidationError("labels must be class ids in [0, n_classes)")
    model, _ = train_ova_rows(Xv, labels, slice(None), cfg)
    if n_classes is not None:
        model.n_classes = n_classes
    model.class_names = tuple(class_names) if class_names is not None else None
    return model


def train_ova_rows(X, labels, rows, cfg: SvmConfig) -> tuple[OvaModel, list[dict]]:
    """The OvA model of the given rows of X (an index array, or a slice),
    with the solver info of each of its binary problems.

    The rows enter the problems in the order given, so every row in order
    trains exactly what ``train_ova`` does.  A single-class row set gets
    the constant model and no solve.
    """
    Xv, labels = _as_values(X), np.asarray(labels, dtype=np.int64)[rows]
    classes = np.unique(labels)
    if classes.size == 1:
        return _constant(int(classes[0]), int(classes[0]) + 1), []
    # Two classes pose one dual (y -> -y leaves (y y')K alone): solve for
    # the second, and the first's weights are the negation.
    solved = classes[1:] if classes.size == 2 else classes
    W, _, infos = _solve_rows(Xv, rows, np.where(labels == solved[:, None], 1.0, -1.0), cfg)
    if classes.size == 2:
        W, infos = np.vstack([-W, W]), infos * 2
    return OvaModel(classes, W[:, :-1], W[:, -1], int(classes.max()) + 1), infos


def decisions(model: OvaModel, X) -> np.ndarray:
    """Decision values (n, m) of the rows of X for the model's classes: one
    ``W @ x + b`` per row, never one product over the batch, so a row scores
    the same bits alone or in any batch, and a local model like its equal."""
    Xv = _as_values(X)
    if model.constant_class is not None:
        return np.full((Xv.shape[0], 1), np.inf)
    if not model.classes.size:
        raise NoTrainedClasses("OvA model has no trained classes")
    if Xv.shape[1] != model.W.shape[1]:
        raise DimMismatch(f"X has dim {Xv.shape[1]}, model expects {model.W.shape[1]}")
    return np.array([model.W @ x for x in Xv]).reshape(-1, model.classes.size) + model.b


def predict_ova_batch(model: OvaModel, X) -> np.ndarray:
    """Per row of X, the class of the highest decision; ties to the lowest id."""
    return model.classes[np.argmax(decisions(model, X), axis=1)]


def save_ova(model: OvaModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#locallearn-ova v1\n")
        fh.write(f"#n_classes {model.n_classes}\n")
        if model.class_names is not None:
            fh.write("#classes " + ",".join(model.class_names) + "\n")
        if model.constant_class is not None:
            fh.write(f"#constant {model.constant_class}\n")
            return
        for cls, b, w in zip(model.classes.tolist(), model.b.tolist(), model.W):
            fh.write(" ".join([str(cls), repr(b)] + [repr(v) for v in w.tolist()]) + "\n")


def load_ova(path) -> OvaModel:
    lines = read_lines(path)
    if not lines or lines[0].strip() != "#locallearn-ova v1":
        raise MalformedFile(f"{path}: bad model header")
    n_classes: int | None = None
    class_names: tuple[str, ...] | None = None
    constant: int | None = None
    rows: list[tuple[int, int, float, list[float]]] = []  # line, class id, b, w
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
            rows.append((lineno, int(parts[0]), float(parts[1]), [float(p) for p in parts[2:]]))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}")
    if constant is not None:
        if rows:
            raise MalformedFile(f"{path}:{rows[0][0]}: weight line in a #constant model")
        return _constant(constant, constant + 1 if n_classes is None else n_classes, class_names)
    seen: set[int] = set()
    for lineno, cls, _, w in rows:
        if cls < 0 or (n_classes is not None and cls >= n_classes):
            raise MalformedFile(f"{path}:{lineno}: class id {cls} out of range")
        if cls in seen:
            raise MalformedFile(f"{path}:{lineno}: repeated class id {cls}")
        if len(w) != len(rows[0][3]):
            raise MalformedFile(f"{path}:{lineno}: inconsistent weight dim")
        seen.add(cls)
    if n_classes is None:
        n_classes = max(seen, default=-1) + 1
    rows.sort(key=lambda row: row[1])
    W = np.array([w for _, _, _, w in rows]) if rows else np.zeros((0, 0))
    return OvaModel([cls for _, cls, _, _ in rows], W, [b for _, _, b, _ in rows],
                    n_classes, class_names)
