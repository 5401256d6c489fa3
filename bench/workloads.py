"""Workload bodies of the locallearn benchmark.

Each workload reads only the files ``gen.py`` wrote and drives the public
``locallearn`` API in one process with ``workers=1``.  It has a ``setup``
(what a fresh process pays before its first result: the warm-up and
``prepare``, which for textures builds the vocabulary from training-image
SIFT) and a ``run``, one pass of its end-to-end operation, which returns
an ``Outcome``:

* fused workloads: one manifest ``run_pipeline`` (ingest, fuse, global OvA
  train and predict, local SVM, k-NN baseline, evaluation), k=200, C=100.
  Its items are the test queries, timed by the local stage's own
  ``BatchTiming.total_s``.
* ``bovw-textures``: every test image through ``read_pgm``, ``dense_sift``
  and ``encode``, leave-one-out global OvA SVMs on the encodings, and one
  short D/S/D ``dsd_train`` of an MLP on raw pixels with flip augmentation.
  Its items are the encoded images, timed from reading to encoding.

Every attempted operation, and every one that raised, is counted in ``Ops``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import locallearn.bovw as bovw
import locallearn.core as core
import locallearn.dsd as dsd
import locallearn.neighbors as neighbors
import locallearn.pipeline as pipeline
import locallearn.report as report
import locallearn.svm as svm
from locallearn.features import l2_normalize_rows

K = 200
C = 100.0
WORKERS = 1
N_CLASSES = 7

SIFT = bovw.DenseSiftConfig()
PYRAMID = bovw.PyramidConfig(vocab_sizes=tuple(v // 50 for v in bovw.FULL_VOCAB_SIZES))
VOCAB_SUBSAMPLE = 4000
TEXTURE_SHAPE = (48, 48)
DSD_HIDDEN = 256
DSD_SCHEDULE = "D6,S6@0.5,D6"
DSD_TRAINER = dict(lr=0.01, batch_size=64, flip_augment=True)


class Ops:
    """Attempted and failed operations; a failure is logged, never fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn, *args):
        """(True, result), or (False, None) when ``fn`` raised."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self.failed += 1
            sys.stderr.write(f"operation failed: {what}\n{traceback.format_exc()}")
            return False, None


@dataclass
class Outcome:
    """One pass of a workload: its wall time, its items and their time, its
    accuracies, and a digest of every output it produced."""

    wall_s: float
    items: int
    items_s: float
    accuracy: float
    baseline_accuracy: float
    digest: str
    extra: dict = field(default_factory=dict)


def warm_up() -> None:
    """Run each numeric path once before anything is timed: the first cosine
    search of a process runs about 10x slower than later ones, from lazy
    BLAS start-up."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 32))
    index = neighbors.CosineIndex(X)
    neighbors.top_k(index, X[0], 8)
    svm.train_ova(X, np.repeat([0, 1], 32), svm.SvmConfig(C=C))
    bovw.dense_sift(rng.integers(0, 256, TEXTURE_SHAPE).astype(np.uint8), SIFT)


def render_outputs(result) -> dict[str, bytes]:
    """The report and prediction files of a pipeline run, byte for byte as
    the ``pipeline`` command writes them."""
    files = {}
    for method, rep in result.reports.items():
        files[f"{method}.report.txt"] = report.render_text(rep).encode()
        files[f"{method}.report.csv"] = report.render_csv(rep).encode()
        preds = result.predictions[method]
        files[f"{method}.predictions"] = "".join(
            f"{sid},{preds[sid]}\n" for sid in sorted(preds)).encode()
    files["comparison.txt"] = report.render_comparison_text(result.reports).encode()
    files["comparison.csv"] = report.render_comparison_csv(result.reports).encode()
    return files


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()


def check_same_outputs(outcomes: list[Outcome], stored: Path) -> list[str]:
    """Outputs must be byte-identical across the passes of a run and across
    runs of one seed; the first run of a seed records its digest."""
    problems = []
    first = outcomes[0].digest
    if any(o.digest != first for o in outcomes[1:]):
        problems.append("outputs differ between passes of one run")
    if stored.exists():
        if stored.read_text().strip() != first:
            problems.append("outputs differ from an earlier run of this seed")
    else:
        stored.write_text(first + "\n")
    return problems


class FusedWorkload:
    # The generic end-to-end metric names, as this workload calls them.
    NAMES = {"run_s": "pipeline_s", "throughput_per_s": "local_queries_per_s",
             "accuracy": "local_accuracy", "baseline_accuracy": "global_accuracy"}

    def __init__(self, name: str, work: Path, seed: int):
        self.name = name
        self.work = work
        self.seed = seed
        self.meta = json.loads((work / "meta.json").read_text())
        self.manifest = None

    def setup(self) -> None:
        warm_up()
        self.prepare()

    def prepare(self) -> None:
        self.manifest = core.parse_manifest(self.work / "dataset.conf")

    def _pipeline(self):
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(self.manifest, k=K, C=C, workers=WORKERS)
        return time.perf_counter() - t0, result

    def run(self, ops: Ops, tracer=None) -> Outcome | None:
        ok, out = ops.run("run_pipeline", self._pipeline)
        if not ok:
            return None
        wall, result = out
        files = render_outputs(result)
        out_dir = self.work / "results"
        out_dir.mkdir(exist_ok=True)
        for name, blob in files.items():
            (out_dir / name).write_bytes(blob)
        acc = {m: r.accuracy for m, r in result.reports.items()}
        timing = result.local_timing
        return Outcome(
            wall_s=wall, items=timing.n_queries, items_s=timing.total_s,
            accuracy=acc["local-svm"], baseline_accuracy=acc["global-svm"],
            digest=_digest(files[n] for n in sorted(files)),
            extra={"knn_accuracy": acc["knn"], "test_samples": result.reports["knn"].n_samples},
        )

    def named(self, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
        """Metrics of this workload that have no generic end-to-end name."""
        return {"knn_accuracy": (outcomes[0].extra["knn_accuracy"], "fraction")}

    def check(self, outcomes: list[Outcome], stored: Path) -> list[str]:
        """Problems found in the outputs; empty when they are correct."""
        problems = check_same_outputs(outcomes, stored)
        o = outcomes[0]
        local, glob, knn = o.accuracy, o.baseline_accuracy, o.extra["knn_accuracy"]
        chance = 1.0 / N_CLASSES
        single = self.meta["single_class_frac"]
        if self.name == "fused-interleaved":
            if not chance < glob < local < 1.0:
                problems.append(f"expected chance < global {glob} < local {local} < 1")
            if not chance < knn < 1.0:
                problems.append(f"expected chance < knn {knn} < 1")
            if single > 0.1:
                problems.append(f"generator: {single:.3f} of neighbourhoods are single-class, expected near 0")
        else:
            if min(local, glob, knn) < 0.95:
                problems.append(f"expected accuracies >= 0.95, got local {local} global {glob} knn {knn}")
            if single < 0.9:
                problems.append(f"generator: {single:.3f} of neighbourhoods are single-class, expected near 1")
        return problems

    def check_trace(self, layer: dict, bases: dict) -> list[str]:
        """The program's own short-circuits must match the workload's design.
        Skipped when the trace could not see every neighbourhood (the
        program no longer calls ``top_k`` per query)."""
        seen = bases["local.short_circuit_frac"]
        if seen["neighbourhoods_seen"] != seen["queries"]:
            return []
        frac = layer["local.short_circuit_frac"]
        if self.name == "fused-interleaved" and frac > 0.1:
            return [f"program short-circuited {frac:.3f} of queries, expected near 0"]
        if self.name == "fused-separable" and frac < 0.9:
            return [f"program short-circuited {frac:.3f} of queries, expected near 1"]
        return []


class TextureWorkload:
    NAMES = {"run_s": "pass_s", "throughput_per_s": "encode_images_per_s",
             "accuracy": "bovw_accuracy", "baseline_accuracy": "dsd_val_accuracy"}

    def __init__(self, name: str, work: Path, seed: int):
        self.name = name
        self.work = work
        self.seed = seed
        self.meta = json.loads((work / "meta.json").read_text())
        self.vocab = None
        self.dsd_data = None

    def setup(self) -> None:
        warm_up()
        self.prepare()

    def prepare(self) -> None:
        """The set-up without the warm-up: training-image SIFT, the
        vocabulary, and the DSD data."""
        images = [bovw.read_pgm(self.work / "train" / f) for f in self.meta["train"]]
        self.vocab = bovw.build_vocab(images, SIFT, PYRAMID, self.seed,
                                      subsample_cap=VOCAB_SUBSAMPLE, workers=WORKERS)
        label_map = core.LabelMap.from_file(self.work / "classes.txt")
        self.dsd_data = []
        for part in ("dsd_train", "dsd_val"):
            m = core.attach_labels(core.load_features(self.work / f"{part}.fv"),
                                   core.read_labels(self.work / f"{part}_labels.csv"),
                                   label_map)
            self.dsd_data.append((m.values, m.labels))

    def _encode(self, name: str):
        t0 = time.perf_counter()
        img = bovw.read_pgm(self.work / "test" / name)
        descs = bovw.dense_sift(img, self.vocab.sift)
        encoding = bovw.encode(descs, self.vocab, PYRAMID, (img.shape[1], img.shape[0]))
        return time.perf_counter() - t0, encoding

    def _ova(self, encodings):
        """Leave-one-out over the test images: each is predicted by an OvA
        SVM trained on the encodings of all the others.  (A fixed half/half
        split of so few images moved the accuracy by a quarter on one seed
        in ten.)"""
        X = l2_normalize_rows(np.vstack(encodings))
        y = np.array([self.meta["classes"].index(n.split("_")[0]) for n in self.meta["test"]])
        pred = np.empty_like(y)
        for i in range(y.size):
            rest = np.arange(y.size) != i
            model = svm.train_ova(X[rest], y[rest], svm.SvmConfig(C=1.0, seed=self.seed))
            pred[i] = svm.predict_ova_batch(model, X[i:i + 1])[0]
        return float(np.mean(pred == y)), pred

    def _dsd(self):
        (Xt, yt), (Xv, yv) = self.dsd_data
        n_classes = len(self.meta["classes"])
        model = dsd.init_mlp([Xt.shape[1], DSD_HIDDEN, n_classes], seed=self.seed)
        cfg = dsd.TrainerConfig(seed=self.seed, **DSD_TRAINER)
        logs = dsd.dsd_train(model, (Xt, yt), (Xv, yv), dsd.parse_schedule(DSD_SCHEDULE),
                             cfg, image_shape=TEXTURE_SHAPE)
        return logs, model

    def run(self, ops: Ops, tracer=None) -> Outcome | None:
        t0 = time.perf_counter()
        encodings, encode_s = [], 0.0
        for name in self.meta["test"]:
            ok, out = ops.run(f"encode {name}", self._encode, name)
            if ok:
                encode_s += out[0]
                encodings.append(out[1])
        if len(encodings) != len(self.meta["test"]):
            return None
        with _span(tracer, "svm.train_ova[global]"):
            ok_ova, ova = ops.run("OvA on encodings", self._ova, encodings)
        t_dsd = time.perf_counter()
        with _span(tracer, "dsd.dsd_train"):
            ok_dsd, trained = ops.run("dsd_train", self._dsd)
        dsd_s = time.perf_counter() - t_dsd
        wall = time.perf_counter() - t0
        if not (ok_ova and ok_dsd):
            return None
        logs, model = trained
        if tracer is not None:
            tracer.counts["dsd.epochs"] += len(logs)
        blobs = [e.tobytes() for e in encodings] + [ova[1].tobytes()]
        blobs += [layer.W.tobytes() + layer.b.tobytes() for layer in model.layers]
        return Outcome(
            wall_s=wall, items=len(encodings), items_s=encode_s,
            accuracy=ova[0], baseline_accuracy=logs[-1].val_acc, digest=_digest(blobs),
            extra={"encodings": encodings, "test_samples": len(ova[1]),
                   "dsd_epochs": len(logs), "dsd_s": dsd_s},
        )

    def named(self, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
        rate = max(o.extra["dsd_epochs"] / o.extra["dsd_s"] for o in outcomes)
        return {"dsd_epochs_per_s": (rate, "1/s")}

    def check(self, outcomes: list[Outcome], stored: Path) -> list[str]:
        problems = check_same_outputs(outcomes, stored)
        o = outcomes[0]
        for e in o.extra["encodings"]:
            if e.shape != (PYRAMID.encoded_dim,) or not np.isin(e, (0.0, 1.0)).all():
                problems.append("an encoding is not a binary vector of the pyramid's dim")
                break
        if o.accuracy < 0.75:
            problems.append(f"BOVW OvA accuracy {o.accuracy} below 0.75")
        if o.baseline_accuracy < 0.7:
            problems.append(f"DSD validation accuracy {o.baseline_accuracy} below 0.7")
        return problems

    def check_trace(self, layer: dict, bases: dict) -> list[str]:
        agreement = layer["bovw.assign_agreement"]
        if agreement < 0.8:
            return [f"word assignment agrees with the brute-force oracle on only {agreement:.3f}"]
        return []


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


WORKLOADS = {
    "fused-interleaved": FusedWorkload,
    "fused-separable": FusedWorkload,
    "bovw-textures": TextureWorkload,
}
