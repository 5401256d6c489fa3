"""Dense-sparse-dense training of a small softmax/MLP classifier.

SGD with momentum over cross-entropy, driven by a phase schedule: dense
phases train unconstrained; during sparse phases the lowest-magnitude
weights of each layer are re-pruned at the end of every epoch, so weights
may recover within an epoch but the sparsity floor is re-imposed each
epoch.  Biases are never pruned.

The schedule grammar for the CLI is comma-separated ``D<epochs>`` and
``S<epochs>@<rate>`` items, e.g. ``D300,S50@0.6,D50,S50@0.6,D50``.

``sensitivity_scan`` prunes one layer at a time over a rate grid and
measures validation accuracy so ``select_rates`` can pick, per layer, the
highest rate whose accuracy drop stays within a threshold (layers failing
every rate are excluded from pruning).

Models serialize to a ``core.BinaryFile`` (magic ``LLMB``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import BinaryFile, reading
from .errors import DimMismatch, MalformedFile, NonFiniteGradient, ValidationError

MODEL_MAGIC = b"LLMB"
SCAN_RATES = (0.3, 0.4, 0.5, 0.6)
LR_DECAY = 0.1  # the learning rate's factor when validation error stagnates


@dataclass(frozen=True)
class TrainerConfig:
    """SGD-with-momentum settings shared by every schedule phase."""

    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 512
    patience: int = 10
    seed: int = 0
    flip_augment: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.patience < 0:
            raise ValidationError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DsdPhase:
    kind: str  # "dense" | "sparse"
    epochs: int
    rate: float = 0.0
    exclude: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in ("dense", "sparse"):
            raise ValidationError(f"unknown phase kind {self.kind!r}")
        if self.epochs < 1:
            raise ValidationError("phase epochs must be >= 1")
        if not 0.0 <= self.rate < 1.0:
            raise ValidationError(f"sparsity rate {self.rate} outside [0, 1)")
        if self.kind == "dense" and self.rate != 0.0:
            raise ValidationError("dense phases must have sparsity 0")


@dataclass(frozen=True)
class DsdSchedule:
    phases: tuple[DsdPhase, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValidationError("schedule needs at least one phase")
        if self.phases[0].kind != "dense":
            raise ValidationError("the first phase must be dense")

    @property
    def total_epochs(self) -> int:
        return sum(p.epochs for p in self.phases)


def parse_schedule(text: str, exclude: Sequence[str] = ()) -> DsdSchedule:
    """Parse ``D<epochs>`` / ``S<epochs>@<rate>`` items into a schedule."""
    phases = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            if item[0] in "Dd":
                phases.append(DsdPhase("dense", int(item[1:])))
            elif item[0] in "Ss":
                epochs_txt, rate_txt = item[1:].split("@", 1)
                phases.append(
                    DsdPhase("sparse", int(epochs_txt), float(rate_txt),
                             exclude=frozenset(exclude))
                )
            else:
                raise ValueError(f"unknown phase kind {item[0]!r}")
        except (ValueError, IndexError) as exc:
            raise MalformedFile(f"bad schedule item {item!r}: {exc}")
    return DsdSchedule(tuple(phases))


@dataclass
class Layer:
    name: str
    W: np.ndarray  # (in, out)
    b: np.ndarray  # (out,)


class MlpModel:
    """Fully-connected ReLU stack with a softmax head, float64 throughout."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValidationError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.W.shape[1] != nxt.W.shape[0]:
                raise ValidationError(
                    f"layer {prev.name} out dim {prev.W.shape[1]} does not feed "
                    f"layer {nxt.name} in dim {nxt.W.shape[0]}"
                )
        for layer in layers:
            if not (np.isfinite(layer.W).all() and np.isfinite(layer.b).all()):
                raise ValidationError(f"layer {layer.name} has non-finite parameters")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].W.shape[0]

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def _forward(self, X: np.ndarray):
        """Returns (pre-activations per layer, activations per layer)."""
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimMismatch(f"X has shape {X.shape}, model expects rows of dim {self.in_dim}")
        acts = [X]
        pres = []
        a = X
        for i, layer in enumerate(self.layers):
            z = a @ layer.W + layer.b
            pres.append(z)
            a = np.maximum(z, 0.0) if i < len(self.layers) - 1 else z
            acts.append(a)
        return pres, acts

    def probs(self, X: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            _, acts = self._forward(np.asarray(X, dtype=np.float64))
            z = acts[-1]
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.probs(X), axis=1)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        y = np.asarray(y)
        _check_labels(self, np.asarray(X), y)
        return float(np.mean(self.predict(X) == y))

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and its gradients w.r.t. every W and b."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.intp)
        n = X.shape[0]
        with np.errstate(invalid="ignore", over="ignore"):
            # divergence shows up as a non-finite loss, checked by callers
            pres, acts = self._forward(X)
            logits = acts[-1]
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            z = e.sum(axis=1, keepdims=True)
            loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), y]))
            probs = e / z
        delta = probs
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.layers[i].W.T) * (pres[i - 1] > 0.0)
        return loss, grads

    def zero_fractions(self) -> dict[str, float]:
        return {
            layer.name: float(np.mean(layer.W == 0.0)) for layer in self.layers
        }


def _check_labels(model: MlpModel, X: np.ndarray, y: np.ndarray, what: str = "") -> None:
    """``ValidationError`` unless ``y`` is one class id per row of ``X``,
    each below the model's output width."""
    if y.shape != X.shape[:1]:
        raise ValidationError(f"{what}labels of shape {y.shape} do not match {X.shape[0]} rows")
    width = model.layers[-1].W.shape[1]
    if y.size and (y.min() < 0 or y.max() >= width):
        raise ValidationError(f"{what}labels must be class ids in [0, {width})")


def mlp_layer_names(n_layers: int) -> list[str]:
    """The names ``init_mlp`` gives the layers of an MLP with ``n_layers``."""
    return [f"fc{i + 1}" for i in range(n_layers)]


def init_mlp(dims: Sequence[int], seed: int = 0, std: float = 0.1) -> MlpModel:
    """Gaussian-initialized MLP; ``dims`` runs input, hidden..., classes."""
    if len(dims) < 2:
        raise ValidationError("dims must name at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for i, name in enumerate(mlp_layer_names(len(dims) - 1)):
        layers.append(
            Layer(
                name=name,
                W=rng.normal(0.0, std, (dims[i], dims[i + 1])),
                b=np.zeros(dims[i + 1]),
            )
        )
    return MlpModel(layers)


def make_velocity(model: MlpModel) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in model.layers]


def sgd_step(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainerConfig,
    velocity: list[tuple[np.ndarray, np.ndarray]],
    lr: float | None = None,
) -> float:
    """One momentum step: v <- momentum*v - lr*grad; params <- params + v.

    The gradients are scaled in place.  Returns the batch loss.  Raises
    NonFiniteGradient when the loss or any gradient entry diverges.
    """
    if X.shape[0] == 0:
        raise ValidationError("batch must be non-empty")
    step_lr = cfg.lr if lr is None else lr
    loss, grads = model.loss_and_grads(X, y)
    if not np.isfinite(loss):
        raise NonFiniteGradient("loss diverged")
    for layer, (vW, vb), (gW, gb) in zip(model.layers, velocity, grads):
        if not (np.isfinite(gW).all() and np.isfinite(gb).all()):
            raise NonFiniteGradient(f"gradient diverged in layer {layer.name}")
        vW *= cfg.momentum
        gW *= step_lr
        vW -= gW
        vb *= cfg.momentum
        gb *= step_lr
        vb -= gb
        layer.W += vW
        layer.b += vb
    return loss


def prune_mask(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Boolean keep-mask zeroing the ceil(sparsity*count) entries of
    smallest absolute value; magnitude ties break to the lowest flat index.

    Rounding up guarantees the pruned layer's exact-zero fraction is at
    least the requested rate.  It equals a stable sort's (NaN last), in linear time:
    one |W| array is partitioned in place for the cut, then refilled.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValidationError(f"sparsity {sparsity} outside [0, 1)")
    weights = np.asarray(weights)
    n_zero = int(np.ceil(sparsity * weights.size - 1e-12))
    mask = np.ones(weights.size, dtype=bool)
    if n_zero:
        mags = np.abs(weights).ravel()
        mags.partition(n_zero - 1)
        cut = mags[n_zero - 1]
        np.abs(weights, out=mags.reshape(weights.shape))
        # a NaN cut sits above every number and ties with every NaN
        below, tied = (mags < cut, mags == cut) if cut == cut else (~np.isnan(mags), np.isnan(mags))
        mask[below] = False
        mask[np.flatnonzero(tied)[: n_zero - np.count_nonzero(below)]] = False
    return mask.reshape(weights.shape)


def check_image_shape(image_shape: tuple[int, int]) -> None:
    h, w = image_shape
    if h < 1 or w < 1:
        raise ValidationError(f"image sides must be >= 1, got {h}x{w}")


def _check_images(X: np.ndarray, image_shape: tuple[int, int]) -> None:
    check_image_shape(image_shape)
    h, w = image_shape
    if X.shape[1] != h * w:
        raise ValidationError(f"rows of dim {X.shape[1]} are not {h}x{w} images")


def _mirrored(X: np.ndarray, image_shape: tuple[int, int]) -> np.ndarray:
    """The row-major images of ``X`` as an (n, h, w) view, mirrored left to right."""
    return X.reshape(-1, *image_shape)[:, :, ::-1]


def flip_augment(X: np.ndarray, image_shape: tuple[int, int]) -> np.ndarray:
    """Append horizontally flipped copies of row-major images; doubles n."""
    _check_images(X, image_shape)
    n = X.shape[0]
    out = np.empty((2 * n, X.shape[1]), dtype=X.dtype)
    out[:n] = X
    out[n:].reshape(-1, *image_shape)[...] = _mirrored(X, image_shape)
    return out


@dataclass
class EpochLog:
    epoch: int
    phase: str
    lr: float
    train_loss: float
    val_acc: float
    zero_fracs: dict[str, float]


def dsd_train(
    model: MlpModel,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
    schedule: DsdSchedule,
    cfg: TrainerConfig,
    image_shape: tuple[int, int] | None = None,
) -> list[EpochLog]:
    """Run the schedule, mutating ``model`` in place; returns per-epoch logs.

    Sparse phases recompute the per-layer prune mask from current weight
    magnitudes at the end of every epoch.  The learning rate decays by
    ``LR_DECAY`` whenever validation error fails to improve for more
    than ``cfg.patience`` consecutive epochs.

    Flip augmentation draws from 2n rows, the last n the mirrored images,
    but mirrors only the rows of each batch: the batches are those of
    ``flip_augment(X)`` and the labels repeated, with no copy of the set.
    """
    X, y = train
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    n = X.shape[0]
    if n == 0:
        raise ValidationError("training set is empty")
    _check_labels(model, X, y, "training ")
    Xv, yv = val
    _check_labels(model, np.asarray(Xv), np.asarray(yv), "validation ")
    if np.asarray(yv).size == 0:
        raise ValidationError("validation set is empty")
    n_draw = n
    if cfg.flip_augment:
        if image_shape is None:
            raise ValidationError("flip augmentation requires image_shape")
        _check_images(X, image_shape)
        n_draw = 2 * n
    velocity = make_velocity(model)
    lr = cfg.lr
    best_err = np.inf
    stall = 0
    logs: list[EpochLog] = []
    epoch = 0
    batch = min(cfg.batch_size, n_draw)
    for phase in schedule.phases:
        for _ in range(phase.epochs):
            rng = np.random.default_rng([cfg.seed, 977, epoch])
            order = rng.permutation(n_draw)
            losses = []
            for start in range(0, n_draw, batch):
                drawn = order[start : start + batch]
                rows = drawn % n
                Xb = X[rows]
                if cfg.flip_augment:
                    flip = drawn >= n
                    Xb.reshape(-1, *image_shape)[flip] = _mirrored(Xb[flip], image_shape)
                losses.append(sgd_step(model, Xb, y[rows], cfg, velocity, lr=lr))
            if phase.kind == "sparse":
                for layer in model.layers:
                    if layer.name in phase.exclude:
                        continue
                    if phase.rate > 0.0:
                        layer.W *= prune_mask(layer.W, phase.rate)
            val_acc = model.accuracy(Xv, yv)
            logs.append(
                EpochLog(
                    epoch=epoch,
                    phase=phase.kind,
                    lr=lr,
                    train_loss=float(np.mean(losses)),
                    val_acc=val_acc,
                    zero_fracs=model.zero_fractions(),
                )
            )
            err = 1.0 - val_acc
            if err < best_err:
                best_err = err
                stall = 0
            else:
                stall += 1
                if stall > cfg.patience:
                    lr *= LR_DECAY
                    stall = 0
            epoch += 1
    return logs


@dataclass
class SensitivityTable:
    """Validation accuracy after pruning each layer alone at each rate."""

    baseline: float
    rates: tuple[float, ...]
    acc: dict[str, dict[float, float]]


def sensitivity_scan(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    rates: Sequence[float] = SCAN_RATES,
) -> SensitivityTable:
    """Prune one layer at a time at each rate, evaluate, restore."""
    baseline = model.accuracy(X, y)
    acc: dict[str, dict[float, float]] = {}
    for layer in model.layers:
        acc[layer.name] = {}
        original = layer.W.copy()
        for rate in rates:
            layer.W *= prune_mask(layer.W, rate)
            acc[layer.name][float(rate)] = model.accuracy(X, y)
            layer.W[:] = original
    return SensitivityTable(baseline=baseline, rates=tuple(float(r) for r in rates), acc=acc)


def select_rates(table: SensitivityTable, max_drop_points: float = 0.5) -> dict[str, float]:
    """Per layer, the highest scanned rate whose accuracy stays within
    ``max_drop_points`` (accuracy percentage points) of the baseline;
    layers failing every rate get 0.0 (excluded from pruning).  A NaN,
    infinite or negative threshold is a ``ValidationError``."""
    if not (np.isfinite(max_drop_points) and max_drop_points >= 0):
        raise ValidationError(f"threshold must be finite and >= 0, got {max_drop_points}")
    floor = table.baseline - max_drop_points / 100.0 - 1e-12
    out: dict[str, float] = {}
    for layer, row in table.acc.items():
        ok = [r for r in table.rates if row[r] >= floor]
        out[layer] = max(ok) if ok else 0.0
    return out


def save_mlp(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", 1, len(model.layers)))
        for layer in model.layers:
            fh.write(BinaryFile.packed_text(layer.name, "layer name"))
            fh.write(struct.pack("<II", *layer.W.shape))
            fh.write(layer.W.astype("<f8").tobytes())
            fh.write(layer.b.astype("<f8").tobytes())


def load_mlp(path) -> MlpModel:
    with open(path, "rb") as fh, reading(path):
        f = BinaryFile(fh, path, "model", MODEL_MAGIC, 1)
        layers = []
        for _ in range(*f.read("<I")):
            name = f.text("layer name")
            rows, cols = f.read("<II")
            layers.append(Layer(name, f.floats(rows * cols).reshape(rows, cols), f.floats(cols)))
        f.end()
        return MlpModel(layers)
