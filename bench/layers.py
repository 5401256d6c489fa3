"""Per-layer metrics of locallearn, measured from the outside.

``attach`` wraps the package's public functions in the namespace of the
module that calls them, so the calls the pipeline, the local learner, the
solver, the encoder and the DSD trainer make to each other become spans;
``layer_metrics`` turns those spans and the counts gathered beside them into
the benchmark's per-layer metrics.  Every metric is always reported: a layer
the workload never reaches, or a function the package no longer calls,
reads 0.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import Tracer

# name, unit, better: the per-layer metrics, in report order.
PER_LAYER = [
    ("core.load_s", "s", "lower"),
    ("core.bytes_read", "bytes", "lower"),
    ("pipeline.ingest_self_s", "s", "lower"),
    ("features.fuse_s", "s", "lower"),
    ("features.rows", "count", "higher"),
    ("neighbors.index_build_s", "s", "lower"),
    ("neighbors.search_s", "s", "lower"),
    ("neighbors.search_calls", "count", "lower"),
    ("neighbors.forest_build_s", "s", "lower"),
    ("neighbors.forest_nn_calls", "count", "lower"),
    ("neighbors.forest_nn_s", "s", "lower"),
    ("svm.local_solve_s", "s", "lower"),
    ("svm.local_solves", "count", "lower"),
    ("svm.binary_solves", "count", "lower"),
    ("svm.passes_mean", "passes", "lower"),
    ("svm.passes_max", "passes", "lower"),
    ("svm.nonconverged", "count", "lower"),
    ("svm.kkt_gap_max", "gap", "lower"),
    ("svm.global_train_s", "s", "lower"),
    ("svm.predict_s", "s", "lower"),
    ("local.queries", "count", "higher"),
    ("local.short_circuit_frac", "fraction", "higher"),
    ("local.classes_per_neighbourhood_mean", "classes", "lower"),
    ("local.knn_s", "s", "lower"),
    ("report.eval_s", "s", "lower"),
    ("bovw.sift_s", "s", "lower"),
    ("bovw.sift_calls", "count", "higher"),
    ("bovw.descriptors_per_image", "count", "higher"),
    ("bovw.kmeans_s", "s", "lower"),
    ("bovw.kmeans_calls", "count", "lower"),
    ("bovw.encode_self_s", "s", "lower"),
    ("bovw.encode_calls", "count", "higher"),
    ("bovw.encoded_bytes_per_image", "bytes", "lower"),
    ("bovw.encoded_nnz_per_image", "count", "higher"),
    ("bovw.assign_agreement", "fraction", "higher"),
    ("bovw.assign_checked", "count", "higher"),
    ("dsd.epochs", "count", "higher"),
    ("dsd.epoch_s", "s", "lower"),
    ("dsd.sgd_steps", "count", "lower"),
    ("dsd.sgd_step_s", "s", "lower"),
    ("dsd.prune_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

LOCAL_TRAIN = "svm.train_ova[local]"
GLOBAL_TRAIN = "svm.train_ova[global]"
LOCAL_BATCH = "local.local_predict_batch"


class LayerProbe:
    """Spans plus the counts that only the wrapped calls can see."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.train_labels = None
        self.neighbourhood_classes: list[int] = []
        self.solver_info: list[dict] = []
        self.descriptors: list[int] = []
        self.encodings: list[tuple] = []  # (descriptor set, vocab, words, encoding)
        self._words: list[int] = []

    def attach(self) -> None:
        import locallearn.bovw as bovw
        import locallearn.dsd as dsd
        import locallearn.local as local
        import locallearn.pipeline as pipeline
        import locallearn.svm as svm

        t, c = self.tracer, self.tracer.counts

        def count_bytes(args, kwargs, result):
            c["core.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

        def count_rows(args, kwargs, result):
            c["features.rows"] += result.n_samples

        def start_batch(args, kwargs):
            self.train_labels = args[0].labels
            c["local.queries"] += args[1].n_samples

        def neighbourhood(args, kwargs, result):
            if t.inside(LOCAL_BATCH) and self.train_labels is not None:
                rows = [i for i, _ in result]
                self.neighbourhood_classes.append(np.unique(self.train_labels[rows]).size)

        def solver(args, kwargs, result):
            if t.inside(LOCAL_TRAIN):
                self.solver_info.append(result[2])

        def descriptors(args, kwargs, result):
            self.descriptors.append(len(result))

        def word(args, kwargs, result):
            self._words.append(result[0])

        def start_encode(args, kwargs):
            self._words = []

        def encoded(args, kwargs, result):
            self.encodings.append((args[0], args[1], self._words, result))

        t.wrap(pipeline, "ingest_and_fuse", "pipeline.ingest_and_fuse")
        t.wrap(pipeline, "load_features", "core.load_features", after=count_bytes)
        t.wrap(pipeline, "fuse", "features.fuse", after=count_rows)
        t.wrap(pipeline, "train_ova", GLOBAL_TRAIN)
        t.wrap(pipeline, "predict_ova_batch", "svm.predict_ova_batch")
        t.wrap(pipeline, "local_predict_batch", LOCAL_BATCH, before=start_batch)
        t.wrap(pipeline, "knn_classify_batch", "local.knn_classify_batch")
        t.wrap(pipeline, "evaluate", "report.evaluate")
        t.wrap(local, "CosineIndex", "neighbors.CosineIndex")
        t.wrap(local, "top_k", "neighbors.top_k", after=neighbourhood)
        t.wrap(local, "train_ova", LOCAL_TRAIN)
        t.wrap(local, "predict_ova", "svm.predict_ova")
        t.wrap(svm, "train_binary_full", "svm.train_binary_full", after=solver)
        t.wrap(bovw, "dense_sift", "bovw.dense_sift", after=descriptors)
        t.wrap(bovw, "kmeans", "bovw.kmeans")
        t.wrap(bovw, "kdforest_build", "neighbors.kdforest_build")
        t.wrap(bovw, "kdforest_nn", "neighbors.kdforest_nn", after=word)
        t.wrap(bovw, "encode", "bovw.encode", before=start_encode, after=encoded)
        t.wrap(dsd, "sgd_step", "dsd.sgd_step")
        t.wrap(dsd, "prune_mask", "dsd.prune_mask")

    def detach(self) -> None:
        self.tracer.unwrap()


def _nearest_centroids(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Brute-force nearest centroid by explicit squared differences; ties
    go to the lowest centroid id (argmin keeps the first minimum)."""
    words = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], 32):
        block = vectors[start:start + 32]
        d2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        words[start:start + 32] = np.argmin(d2, axis=1)
    return words


def _cell(coord: int, extent: int, grid: int) -> int:
    """Pyramid cell of a pixel coordinate; exact boundaries fall to the
    lower cell."""
    u = coord * grid
    cell = u // extent
    if cell > 0 and u % extent == 0:
        cell -= 1
    return min(cell, grid - 1)


def assignment_agreement(encodings, image_size) -> tuple[int, int]:
    """(agreeing, checked) over descriptors x pyramid levels.

    A pair agrees when the word the program chose equals the oracle's.  When
    the program's per-descriptor words are not observable (it no longer calls
    ``kdforest_nn``), a pair agrees when the encoding has the oracle word's
    bit set in that descriptor's cell.
    """
    width, height = image_size
    agree = checked = 0
    for descs, vocab, words, encoding in encodings:
        n = len(descs)
        observed = len(words) == n * len(vocab.levels)
        offset = 0
        for li, level in enumerate(vocab.levels):
            k = level.centroids.shape[0]
            oracle = _nearest_centroids(descs.vectors, level.centroids)
            if observed:
                agree += int(np.sum(np.asarray(words[li * n:(li + 1) * n]) == oracle))
            else:
                for i in range(n):
                    cell = (_cell(int(descs.y[i]), height, level.grid) * level.grid
                            + _cell(int(descs.x[i]), width, level.grid))
                    agree += int(encoding[offset + cell * k + oracle[i]] == 1.0)
            checked += n
            offset += level.grid * level.grid * k
    return agree, checked


def layer_metrics(probe: LayerProbe, untraced_s: float, traced_s: float,
                  image_size=None) -> tuple[dict[str, float], dict[str, dict]]:
    """(per-layer metrics, the base of every ratio among them)."""
    spans = probe.tracer.summary()
    counts = probe.tracer.counts

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    queries = counts["local.queries"]
    seen = probe.neighbourhood_classes
    passes = [info["passes"] for info in probe.solver_info]
    sift_calls = calls("bovw.dense_sift")
    encode_calls = calls("bovw.encode")
    epochs = counts["dsd.epochs"]
    steps = calls("dsd.sgd_step")
    agree, checked = (assignment_agreement(probe.encodings, image_size)
                      if probe.encodings else (0, 0))
    encodings = [e[3] for e in probe.encodings]
    values = {
        "core.load_s": total("core.load_features"),
        "core.bytes_read": counts["core.bytes_read"],
        "pipeline.ingest_self_s": spans.get("pipeline.ingest_and_fuse", {}).get("self_s", 0.0),
        "features.fuse_s": total("features.fuse"),
        "features.rows": counts["features.rows"],
        "neighbors.index_build_s": total("neighbors.CosineIndex"),
        "neighbors.search_s": total("neighbors.top_k"),
        "neighbors.search_calls": calls("neighbors.top_k"),
        "neighbors.forest_build_s": total("neighbors.kdforest_build"),
        "neighbors.forest_nn_calls": calls("neighbors.kdforest_nn"),
        "neighbors.forest_nn_s": total("neighbors.kdforest_nn"),
        "svm.local_solve_s": total(LOCAL_TRAIN),
        "svm.local_solves": calls(LOCAL_TRAIN),
        "svm.binary_solves": len(passes),
        "svm.passes_mean": float(np.mean(passes)) if passes else 0.0,
        "svm.passes_max": max(passes, default=0),
        "svm.nonconverged": sum(not info["converged"] for info in probe.solver_info),
        "svm.kkt_gap_max": max((info["kkt_gap"] for info in probe.solver_info), default=0.0),
        "svm.global_train_s": total(GLOBAL_TRAIN),
        "svm.predict_s": total("svm.predict_ova_batch"),
        "local.queries": queries,
        "local.short_circuit_frac": (sum(n == 1 for n in seen) / queries) if queries else 0.0,
        "local.classes_per_neighbourhood_mean": float(np.mean(seen)) if seen else 0.0,
        "local.knn_s": total("local.knn_classify_batch"),
        "report.eval_s": total("report.evaluate"),
        "bovw.sift_s": total("bovw.dense_sift"),
        "bovw.sift_calls": sift_calls,
        "bovw.descriptors_per_image": float(np.mean(probe.descriptors)) if probe.descriptors else 0.0,
        "bovw.kmeans_s": total("bovw.kmeans"),
        "bovw.kmeans_calls": calls("bovw.kmeans"),
        "bovw.encode_self_s": spans.get("bovw.encode", {}).get("self_s", 0.0),
        "bovw.encode_calls": encode_calls,
        "bovw.encoded_bytes_per_image": float(np.mean([e.nbytes for e in encodings])) if encodings else 0.0,
        "bovw.encoded_nnz_per_image": float(np.mean([np.count_nonzero(e) for e in encodings])) if encodings else 0.0,
        "bovw.assign_agreement": agree / checked if checked else 0.0,
        "bovw.assign_checked": checked,
        "dsd.epochs": epochs,
        "dsd.epoch_s": total("dsd.dsd_train") / epochs if epochs else 0.0,
        "dsd.sgd_steps": steps,
        "dsd.sgd_step_s": total("dsd.sgd_step") / steps if steps else 0.0,
        "dsd.prune_s": total("dsd.prune_mask"),
        "trace.untraced_s": untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
    }
    bases = {
        "local.short_circuit_frac": {"queries": queries, "neighbourhoods_seen": len(seen)},
        "local.classes_per_neighbourhood_mean": {"neighbourhoods_seen": len(seen)},
        "svm.passes_mean": {"binary_solves": len(passes)},
        "bovw.descriptors_per_image": {"images": len(probe.descriptors)},
        "bovw.encoded_bytes_per_image": {"images": len(encodings), "how": "computed: ndarray.nbytes"},
        "bovw.encoded_nnz_per_image": {"images": len(encodings)},
        "bovw.assign_agreement": {"descriptor_levels": checked},
        "dsd.epoch_s": {"epochs": epochs},
        "dsd.sgd_step_s": {"sgd_steps": steps},
        "trace.overhead_frac": {"untraced_s": untraced_s, "traced_s": traced_s},
    }
    return {name: float(values[name]) for name, _, _ in PER_LAYER}, bases
