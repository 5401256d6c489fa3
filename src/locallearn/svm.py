"""Soft-margin linear SVM (L1 hinge) and one-versus-all multiclass wrapper.

The bias is regularized: the dual is over G = X X' + 1, as if every
sample had a constant feature of value 1.  No augmented copy of X is
built; the weights W and the bias b are kept apart.

Training takes one row set of a matrix (all rows, or one query's
neighbourhood), poses one problem per class, and solves them all in one
loop, ``_solve_rows``.  A set of up to ``_GRAM_LIMIT`` rows gets one Gram
matrix K (its own ``gram`` product, or its block of a wider one that the
caller shares between overlapping sets), on which an exact active-set
Newton step starts every problem from alpha = 0.  Newton's result is kept
only on a certificate: 0 <= alpha <= C and a KKT gap within
``tolerance``.  The problems it does not certify, and every problem of a
larger set, run dual coordinate ascent in feature space (Hsieh et al.,
ICML 2008) together (as in Keerthi et al., KDD 2008), retrying Newton
every ``_WARM_PASSES`` passes.  Without K, Newton's inputs come from a
cache of the dot products of the rows free in its steps (``_gram_cache``,
LIBSVM's kernel cache) and from the rows of nonzero alpha
(``_feature_grad``), so ``_GRAM_LIMIT`` decides only where they come
from.  Newton solves its free block by numpy's LU, as a faster Cholesky
would need scipy.

A one-vs-all model is the ascending ids of its trained classes, a weight
matrix with one row per class and a bias vector.  A row set of a single
class poses no problem: its model is that class with a zero row and a zero
bias.  ``decisions`` computes every decision value, for local, global and
command-line prediction alike.

A model file is a text feature file (``core.save_features``) keyed by
class name: one row ``<class name>,b,w1,...,wD`` per trained class, in
ascending class id.  Its class ids and names meet only in ``save_ova``
and ``load_ova``, through a ``LabelMap``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, LabelMap, _checked_labels, as_rows, load_features, reading, save_features
from .errors import NoTrainedClasses, SingleClass, ValidationError
from .features import _ROWS

# Newton's source is chosen by sample count alone, so identical data always
# takes the identical path.  A Gram matrix for fused global training (n >= 3,000)
# would add 72 MB to its peak memory.
_GRAM_LIMIT = 2048  # samples
_WARM_PASSES = 10  # coordinate-ascent passes between Newton finishes
_NEWTON_STEPS = 25  # active-set steps before falling back to coordinate ascent
_RHS_BLOCK = 8  # columns per block of the shared first-step solve


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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def train_binary(X, y, cfg: SvmConfig) -> tuple[np.ndarray, float, np.ndarray, dict]:
    """Train one binary L1-hinge SVM; deterministic given (data, cfg, seed).
    Returns the weights, the bias, the dual variables and the solver info."""
    Xv = as_rows(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (Xv.shape[0],):
        raise ValidationError("y length does not match X")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("y entries must be -1 or +1")
    if np.unique(y).size < 2:
        raise SingleClass("training data contains a single class")
    W, b, alphas, infos = _solve_rows(Xv, slice(None), y[None, :], cfg)
    return W[0], float(b[0]), alphas[0], infos[0]


def _kkt_gap(alpha: np.ndarray, G: np.ndarray, C: float) -> np.ndarray:
    """Largest projected-gradient violation along the last axis, infinite outside [0, C]."""
    pg = np.where(alpha == 0.0, np.minimum(G, 0.0), np.where(alpha == C, np.maximum(G, 0.0), G))
    return np.where((alpha < 0.0) | (alpha > C), np.inf, np.abs(pg)).max(axis=-1)


def _sets(alpha: np.ndarray, g: np.ndarray, diag: np.ndarray, C: float) -> np.ndarray:
    """Newton's sets of one step: 0 where alpha_i - g_i / Q_ii <= 0, 2 where
    it is >= C, 1 (free) elsewhere."""
    z = alpha - g / diag
    return np.where(z <= 0.0, 0, np.where(z >= C, 2, 1))


def _newton(alpha: np.ndarray, g: np.ndarray, y: np.ndarray, grad, block, diag, width: int, cfg: SvmConfig,
            steps: int, first: np.ndarray | None = None):
    """Active-set Newton finish of one dual from a feasible ``alpha`` and
    its gradient ``g``, given the labels ``y``, ``grad(a)`` = Q a - 1 with
    Q = (y y') * G, ``block(F)`` = G_FF and ``diag`` = diag(Q).  A step puts
    index i at 0 where alpha_i - g_i / Q_ii <= 0, at C where it is >= C, and
    solves for the free rest, G_FF beta = y_F * r with alpha_F = y_F * beta,
    which flips only signs of Q_FF alpha_F = r; at most ``steps`` solves,
    none with more free indices than ``width`` (G_FF is then singular).  The
    certificate takes ``grad`` after the last step.  ``first``, when given,
    is the first step's beta (``_first_steps``).  Returns the certified
    alpha, or the given one, and the info."""
    C, start, sets = float(cfg.C), alpha, None
    for solves in range(steps + 1):
        new = _sets(alpha, g, diag, C)
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
            beta = first if solves == 0 and first is not None else \
                np.linalg.solve(block(free), y[free] * -grad(alpha)[free])
            alpha[free] = y[free] * beta
        except np.linalg.LinAlgError:
            return start, {"passes": solves + 1, "converged": False, "kkt_gap": np.inf}
        g, sets = grad(alpha), new
    return start, {"passes": solves, "converged": False, "kkt_gap": np.inf}


def _first_steps(grad_of, block, Y: np.ndarray, diag: np.ndarray, width: int, cfg: SvmConfig) -> list:
    """The first Newton step's beta of each problem (label row of Y) from
    alpha = 0 on a Gram matrix (``block(F)`` = G_FF, ``grad_of(y)`` the
    ``grad`` of the problem of labels y), or None where ``_newton`` takes no
    step or G_FF is singular.  The gradient at 0 is -1 in every problem, so
    all share one free set F and one G_FF, solved once for all their
    right-hand sides, zero-padded to a multiple of ``_RHS_BLOCK`` columns:
    a column's bits can depend on the solve's width, but not on its position
    or the other columns, so a problem has the same bits alone or with its
    set."""
    m, n = Y.shape
    C = float(cfg.C)
    new = _sets(np.zeros(n), -np.ones(n), diag, C)
    free = np.flatnonzero(new == 1)
    if cfg.max_passes < 2 or free.size > width:  # one pass leaves no Newton step
        return [None] * m
    alpha = np.where(new == 2, C, 0.0)
    R = np.zeros((free.size, -(-m // _RHS_BLOCK) * _RHS_BLOCK))
    for p, y in enumerate(Y):
        R[:, p] = y[free] * -grad_of(y)(alpha)[free]
    try:
        return list(np.linalg.solve(block(free), R).T[:m])
    except np.linalg.LinAlgError:
        return [None] * m


def _gram_grad(K: np.ndarray, y: np.ndarray):
    """``grad(a)`` = Q a - 1 of one problem on its Gram matrix K."""
    return lambda alpha: y * (K @ (alpha * y)) - 1.0


def _feature_grad(X: np.ndarray, y: np.ndarray):
    """``grad(a)`` = Q a - 1 of one problem on the rows of X, summed over the
    rows of nonzero alpha a tile at a time."""
    def grad(alpha):
        nz = np.flatnonzero(alpha)
        if not nz.size:
            return -np.ones(X.shape[0])
        v = sum((alpha[p] * y[p]) @ X[p] for p in np.split(nz, range(_ROWS, nz.size, _ROWS)))
        return y * (X @ v + alpha @ y) - 1.0
    return grad


def gram(Xs: np.ndarray) -> np.ndarray:
    """G = Xs Xs' + 1, the Gram matrix of the rows of Xs with the bias's
    constant feature.  A row whose squared norm overflows gives an infinite
    diagonal, which ``_solve_rows`` rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = Xs @ Xs.T
    K += 1.0
    return K


def _gram_cache(X: np.ndarray):
    """``block(F)`` = G_FF = X_F X_F' + 1 from a cache of the rows of X free
    in any block asked for so far (LIBSVM's kernel cache).  A block with
    rows new to the cache appends one band: the new rows' products with
    every cached row and with each other, ``+ 1``, a tile of ``_ROWS`` rows
    against a tile at a time, so each product of two rows is computed once
    and no row set larger than a tile is gathered.  G_FF is the first band
    itself when F is its rows in order, and otherwise is filled from the
    bands a row tile at a time."""
    slot, cached, bands = np.full(X.shape[0], -1), np.empty(0, dtype=np.intp), []

    def grow(new):
        nonlocal cached
        start = cached.size
        slot[new], cached = np.arange(start, start + new.size), np.append(cached, new)
        band = np.empty((new.size, cached.size))  # rows: the new slots; columns: every slot
        for lo in range(0, new.size, _ROWS):
            hi = min(lo + _ROWS, new.size)
            Xt, at = X[new[lo:hi]], start + lo  # the tile's rows, from slot ``at`` on
            for c in range(0, at, _ROWS):
                band[lo:hi, c:min(c + _ROWS, at)] = Xt @ X[cached[c:min(c + _ROWS, at)]].T
            band[lo:hi, at:start + hi] = Xt @ Xt.T
            band[:lo, at:start + hi] = band[lo:hi, start:at].T  # the earlier new rows' products with the tile
        band += 1.0
        bands.append(band)

    def block(F):
        new = F[slot[F] < 0]
        if new.size:
            grow(new)
        S = slot[F]
        if bands and F.size == bands[0].shape[0] and np.array_equal(S, np.arange(F.size)):
            return bands[0]
        # A row tile of the whole cached Gram matrix, with its gather from a
        # band, takes no more memory than a tile of X's rows.
        tile = max(1, min(_ROWS, _ROWS * X.shape[1] // max(2 * cached.size, 1)))
        G = np.empty((F.size, F.size))
        for lo in range(0, F.size, tile):
            s = S[lo:lo + tile]
            rows = np.empty((s.size, cached.size))
            for band in bands:
                end = band.shape[1]
                start = end - band.shape[0]
                mine, early = (s >= start) & (s < end), s < start
                rows[mine, :end] = band[s[mine] - start]
                rows[early, start:end] = band[:, s[early]].T
            np.take(rows, S, axis=1, out=G[lo:lo + tile], mode="clip")  # "clip" writes to out unbuffered
        return G
    return block


def _solve_rows(X: np.ndarray, rows, Y: np.ndarray, cfg: SvmConfig, K: np.ndarray | None = None):
    """Solve the problems on ``rows`` of X (an index array or a slice), one
    per +/-1 label row of Y (m, n), each from alpha = 0, in the one loop of
    the module docstring.  Returns the weights W (m, d), the biases b (m,)
    and the alphas (m, n), one row per problem, and the infos.  ``K``, when
    given, is the rows' Gram matrix, a block of a wider ``gram`` product,
    used in place of their own; it is C-ordered like their own, as the
    bits of ``K @ v`` depend on the layout.

    A pass visits, in one random permutation, every row that is free or has
    a nonzero projected gradient in some live problem (which after the pass
    certifies that problem).  At each row one ``W @ x`` gives every live
    problem's margin, and each problem whose own visit set holds the row
    takes its exact step and updates its own row of W.  With one problem
    this is the ascent of that problem alone.  After each pass one
    ``W @ X.T`` gives every live problem's gradient, reading X once for all
    of them.  Newton's inputs (K, or the rows and a Gram cache kept while
    the same problem tries again) are chosen once, at set-up, and each try
    starts from the problem's row of G.  A problem leaves the live set when
    certified or at ``max_passes``."""
    Xs = X[rows]
    (m, n), C = Y.shape, float(cfg.C)
    if K is None and n <= _GRAM_LIMIT:
        K = gram(Xs)
    # diag(G) is the check that no row's squared norm, nor then any product
    # of two rows (|x . z| <= |x| |z|), overflows.
    diag = np.diagonal(K) if K is not None else np.einsum("ij,ij->i", Xs, Xs) + 1.0
    if not np.isfinite(diag).all():
        raise ValidationError("a row's squared norm overflows float64")
    width = Xs.shape[1] + 1
    if K is not None:
        block = lambda F: K if F.size == n else K[F][:, F]
        grad_of = lambda y: _gram_grad(K, y)
        first = _first_steps(grad_of, block, Y, diag, width, cfg)
        inputs, start = lambda p: (grad_of(Y[p]), block), 0
    else:
        # Newton waits for a pass: from alpha = 0 every row with 1 / Q_ii < C
        # is free, and a first step would need the Gram matrix of them all.
        first, start, held = [None] * m, _WARM_PASSES, {}

        def inputs(p):
            if p not in held:  # the last problem's cache is freed here, before this one grows
                held.clear()
                held[p] = _gram_cache(Xs)
            return _feature_grad(Xs, Y[p]), held[p]
    rng = np.random.default_rng(cfg.seed)
    A, G = np.zeros((m, n)), -np.ones((m, n))
    qdiag = diag.tolist()
    live, W, b = list(range(m)), np.zeros((m, Xs.shape[1])), [0.0] * m
    passes, infos, sweeps = [0] * m, [None] * m, 0
    while True:
        if sweeps >= start and sweeps % _WARM_PASSES == 0:
            for p in live:
                if passes[p] < cfg.max_passes - 1:
                    done, info = _newton(A[p], G[p], Y[p], *inputs(p), diag, width, cfg,
                                         min(_NEWTON_STEPS, cfg.max_passes - passes[p] - 1),
                                         first=first[p] if sweeps == 0 else None)
                    passes[p] += info["passes"]
                    if info["converged"]:
                        A[p], infos[p] = done, {**info, "passes": passes[p]}
        keep = [k for k, p in enumerate(live) if infos[p] is None]
        live, W, b = [live[k] for k in keep], W[keep], [b[k] for k in keep]
        if not live:
            break
        Al, Gl = A[live], G[live]
        visits = np.where(Al == 0.0, Gl < 0.0, np.where(Al == C, Gl > 0.0, True))
        order = np.flatnonzero(visits.any(axis=0))
        states = [(k, memoryview(A[p]), memoryview(Y[p]), visits[k].tobytes(), W[k]) for k, p in enumerate(live)]
        for i in order[rng.permutation(order.size)].tolist():
            x = Xs[i]
            margins = W.dot(x).tolist()
            for k, al, ys, visit, w in states:
                if visit[i]:
                    a = al[i]
                    a_new = min(max(a - (ys[i] * (margins[k] + b[k]) - 1.0) / qdiag[i], 0.0), C)
                    if a_new != a:
                        step = (a_new - a) * ys[i]
                        w += step * x
                        b[k] += step
                        al[i] = a_new
        G[live] = Y[live] * (W @ Xs.T + np.array(b)[:, None]) - 1.0
        sweeps += 1
        for p, gap in zip(live, _kkt_gap(A[live], G[live], C).tolist()):
            passes[p] += 1
            if gap <= cfg.tolerance or passes[p] >= cfg.max_passes:
                infos[p] = {"passes": passes[p], "converged": gap <= cfg.tolerance, "kkt_gap": gap}
    AY = A * Y
    return np.array([ay @ Xs for ay in AY]), np.array([ay.sum() for ay in AY]), A, infos


@dataclass
class OvaModel:
    """A one-vs-all linear model: the trained class ids in ascending order,
    one row of ``W`` and one entry of ``b`` per class.  Classes absent from
    training have no row, so they are never predicted (decision -inf).
    A training set of a single class gives that class a zero row and a
    zero bias: every decision is 0, and every prediction that class.
    """

    classes: np.ndarray  # (m,) int64, ascending
    W: np.ndarray  # (m, d), C-contiguous
    b: np.ndarray  # (m,)

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        m = self.classes.shape
        if len(m) != 1 or self.W.ndim != 2 or self.W.shape[:1] != m or self.b.shape != m:
            raise ValidationError("classes (m,), W (m, d) and b (m,) disagree in shape")
        if np.any(np.diff(self.classes) <= 0):
            raise ValidationError("classes must be ascending and distinct")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValidationError("model parameters must be finite")


def train_ova(X, labels, cfg: SvmConfig, return_infos: bool = False):
    """Train one binary model per class present in ``labels``.

    Classes absent from the data stay untrained (decision -inf at predict
    time).  A single-class training set gets a zero row and no solve.
    ``return_infos`` adds the solver info of each binary model:
    ``(model, infos)``, as ``train_ova_rows``.
    """
    Xv = as_rows(X)
    labels = _checked_labels(labels, Xv.shape[0])
    if labels.size == 0:
        raise ValidationError("cannot train on an empty dataset")
    model, infos = train_ova_rows(Xv, labels, slice(None), cfg)
    return (model, infos) if return_infos else model


def train_ova_rows(X, labels, rows, cfg: SvmConfig, K: np.ndarray | None = None) -> tuple[OvaModel, list[dict]]:
    """The OvA model of the given rows (an index array, or a slice) of X, a
    float64 array not checked here, with the solver info of each problem.

    The rows enter the problems in the order given, so every row in order
    trains exactly what ``train_ova`` does.  A single-class row set gets
    a zero row and a zero bias, and no solve.  ``K``, when given, is the
    rows' Gram matrix (a block of a wider ``gram`` product) and replaces
    their own.
    """
    labels = np.asarray(labels, dtype=np.int64)[rows]
    classes = np.unique(labels)
    if classes.size == 1:
        W, b, infos = np.zeros((1, X.shape[1])), np.zeros(1), []
    else:
        # Two classes pose one dual (y -> -y leaves (y y')K alone): solve
        # for the second, and the first's weights are the negation.
        solved = classes[1:] if classes.size == 2 else classes
        W, b, _, infos = _solve_rows(X, rows, np.where(labels == solved[:, None], 1.0, -1.0), cfg, K)
        if classes.size == 2:
            W, b, infos = np.vstack([-W, W]), np.append(-b, b), infos * 2
    return OvaModel(classes, W, b), infos


def decisions(model: OvaModel, X) -> np.ndarray:
    """Decision values (n, m) of the rows of X for the model's classes: one
    ``W @ x + b`` per row, never one product over the batch, so a row scores
    the same bits alone or in any batch, and a local model like its equal."""
    Xv = as_rows(X, dim=model.W.shape[1])
    if not model.classes.size:
        raise NoTrainedClasses("OvA model has no trained classes")
    return np.array([model.W @ x for x in Xv]).reshape(-1, model.classes.size) + model.b


def predict_ova_batch(model: OvaModel, X) -> np.ndarray:
    """Per row of X, the class of the highest decision; ties to the lowest id."""
    return model.classes[np.argmax(decisions(model, X), axis=1)]


def save_ova(model: OvaModel, label_map: LabelMap, path) -> None:
    """Write ``model`` as a text feature file keyed by class name, one row
    ``<name>,b,w1,...,wD`` per trained class in ascending class id; a class
    id that ``label_map`` does not name is UnknownClassName."""
    names = [label_map.name_of(cls) for cls in model.classes.tolist()]
    save_features(FeatureMatrix(np.column_stack([model.b, model.W]), names), path)


def load_ova(path, label_map: LabelMap | None = None) -> tuple[OvaModel, LabelMap]:
    """The model of a file ``save_ova`` wrote, in either feature format,
    with its label map: ``label_map``, which gives each row's class its id
    (a name it lacks is UnknownClassName), or else the row names in file
    order.  A file with no row is NoTrainedClasses."""
    rows = load_features(path)
    with reading(path):
        if not rows.n_samples:
            raise NoTrainedClasses("OvA model has no trained classes")
        label_map = LabelMap(rows.sample_ids) if label_map is None else label_map
        ids = np.array([label_map.id_of(name) for name in rows.sample_ids], dtype=np.int64)
        order = np.argsort(ids)
        return OvaModel(ids[order], rows.values[order, 1:], rows.values[order, 0]), label_map
