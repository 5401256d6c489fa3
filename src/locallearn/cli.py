"""Command-line surface tying the pipeline together.

Subcommands: ingest, build-vocab, encode, fuse, train-global,
predict-global, predict-local, knn-baseline, dsd-train, sensitivity-scan,
eval, pipeline.

Exit codes: 0 success, 2 validation error, 3 compute error.  Errors print
``error: <ErrorName>: <detail>`` on stderr.  The commands that draw
random numbers take ``--seed``, which falls back to $LOCALLEARN_SEED,
then to the manifest's ``seed`` for ingest and pipeline, then to 0.
Timings go to stderr and sidecar ``timing.txt`` files only, so written
reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import bovw, core, dsd, report, svm
from .errors import ComputeError, MalformedFile, UnknownSource, ValidationError
from .features import fuse
from .local import LocalLearnerConfig, knn_classify_batch, local_predict_batch
from .pipeline import ingest_and_fuse, run_pipeline


def _resolve_seed(value: int | None, default: int | None = 0) -> int | None:
    """``--seed``, else $LOCALLEARN_SEED, else ``default``; a negative seed
    is a ValidationError."""
    if value is None:
        env = os.environ.get("LOCALLEARN_SEED")
        if env is None:
            return default
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"LOCALLEARN_SEED={env!r} is not an integer")
    if value < 0:
        raise ValidationError(f"seed must be >= 0, got {value}")
    return value


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_label_map(args, names) -> core.LabelMap:
    """``--labelmap``, else the sorted distinct class ``names``."""
    if getattr(args, "labelmap", None):
        return core.LabelMap.from_file(args.labelmap)
    return core.LabelMap(tuple(sorted(set(names))))


def _labeled_matrix(features_path, labels_path, args, label_map=None):
    """The features with their labels attached by ``label_map``; a command
    derives its one map at its first file (``--labelmap``, else that file's
    names) and passes it on, so every file gets the same class ids."""
    matrix = core.load_features(features_path)
    labels = core.read_labels(labels_path)
    if label_map is None:
        label_map = _load_label_map(args, labels.values())
    return core.attach_labels(matrix, labels, label_map), label_map


def cmd_ingest(args) -> int:
    seed = _resolve_seed(args.seed, default=None)  # None: the manifest's seed
    data = ingest_and_fuse(core.parse_manifest(args.manifest), seed=seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for split, matrix in sorted(data.fused.items()):
        core.save_features(matrix, out / f"{split}.features", fmt=args.format)
        core.write_labels(data.label_map.named(matrix.sample_ids, matrix.labels), out / f"{split}.labels")
        summary.append(f"{split}: {matrix.n_samples} samples, dim {matrix.dim}")
    data.label_map.save(out / "labelmap.txt")
    text = "\n".join(summary) + "\n"
    _write_text(out / "ingest.txt", text)
    sys.stdout.write(text)
    return 0


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _bovw_value(name: str, parse, text: str) -> tuple[str, object]:
    """The setting ``name`` and its value, ``parse`` of ``text``, checked
    alone over the defaults of the other settings."""
    value = parse(text)
    if name == "cap" and value < 1:
        raise ValidationError(f"subsample cap must be >= 1, got {value}")
    elif name in ("levels", "vocab_sizes"):
        bovw.PyramidConfig(value, value)  # checks this one tuple alone
    elif name != "cap":
        bovw.DenseSiftConfig(**{name: value})
    return name, value


# config key -> (the setting it gives, how its value is parsed)
_BOVW_KEYS = {"bin-sizes": ("bin_sizes", _ints), "step": ("step", int),
              "contrast-threshold": ("contrast_threshold", float),
              "levels": ("levels", _ints), "vocab": ("vocab_sizes", _ints),
              "subsample-cap": ("cap", int)}


def _read_bovw_config(path) -> tuple[bovw.DenseSiftConfig, bovw.PyramidConfig, int]:
    """The SIFT and pyramid settings and the subsample cap of a build-vocab
    config (``core.read_directives``): the keys given, over the defaults of
    ``DenseSiftConfig``, ``PyramidConfig`` and ``build_vocab``.  A value
    that fails alone names its line; a fault between keys (levels against
    vocab) names the file."""
    grammar = {key: functools.partial(_bovw_value, *setting) for key, setting in _BOVW_KEYS.items()}
    given = dict(core.read_directives(path, grammar).values())  # setting -> value
    cap = given.pop("cap", bovw.SUBSAMPLE_CAP)
    pyramid = {k: given.pop(k) for k in ("levels", "vocab_sizes") if k in given}
    with core.reading(path, MalformedFile):
        return bovw.DenseSiftConfig(**given), bovw.PyramidConfig(**pyramid), cap


def _image_dir(path) -> tuple[list[str], list[np.ndarray]]:
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise ValidationError(f"no .pgm images in {path}")
    return [f.stem for f in files], [bovw.read_pgm(f) for f in files]


def cmd_build_vocab(args) -> int:
    seed = _resolve_seed(args.seed)
    core.check_workers(args.workers)
    sift, pyramid, subsample_cap = _read_bovw_config(args.config)
    _, images = _image_dir(args.images)
    vocab = bovw.build_vocab(
        images, sift, pyramid, seed, subsample_cap=subsample_cap, workers=args.workers
    )
    bovw.save_vocab(vocab, args.out)
    sizes = ", ".join(str(lv.centroids.shape[0]) for lv in vocab.levels)
    sys.stdout.write(f"vocabulary: {len(vocab.levels)} levels ({sizes} words)\n")
    return 0


def cmd_encode(args) -> int:
    core.check_workers(args.workers)
    vocab = bovw.load_vocab(args.vocab)
    ids, images = _image_dir(args.images)

    def one(img):
        descs = bovw.dense_sift(img, vocab.sift)
        return bovw.encode(descs, vocab, vocab.pyramid, (img.shape[1], img.shape[0]))

    with core.fan_out(args.workers) as fan:
        rows = list(fan(one, images))  # in input order
    matrix = core.FeatureMatrix(np.vstack(rows), ids)
    core.save_features(matrix, args.out, fmt=args.format)
    sys.stdout.write(f"encoded {matrix.n_samples} images, dim {matrix.dim}\n")
    return 0


def cmd_fuse(args) -> int:
    pairs = []
    for item in args.source:
        if "=" not in item:
            raise ValidationError(f"--source expects name=path, got {item!r}")
        pairs.append(item.split("=", 1))
    skip = set(args.no_normalize or ())
    unknown = skip - {name for name, _ in pairs}
    if unknown:
        raise UnknownSource(f"--no-normalize names unknown sources {sorted(unknown)}")
    with ExitStack() as files:
        fused = fuse(
            [(name, files.enter_context(core.FeatureRows(path)), name not in skip)
             for name, path in pairs],
            renormalize=args.renormalize,
        )
    core.save_features(fused, args.out, fmt=args.format)
    sys.stdout.write(f"fused {fused.n_samples} samples, dim {fused.dim}\n")
    return 0


def _report_solver(solves: int, nonconverged: int, gram_entries: int | None = None) -> None:
    gram = "" if gram_entries is None else f", {gram_entries} Gram entries"
    sys.stderr.write(f"solver: {solves} binary models, {nonconverged} stopped at max passes "
                     f"without converging{gram}\n")


def cmd_train_global(args) -> int:
    cfg = svm.SvmConfig(C=args.C, seed=_resolve_seed(args.seed))
    matrix, label_map = _labeled_matrix(args.features, args.labels, args)
    model, infos = svm.train_ova(matrix.values, matrix.labels, cfg, return_infos=True)
    svm.save_ova(model, label_map, args.out)
    _report_solver(len(infos), sum(not info["converged"] for info in infos))
    sys.stdout.write(
        f"trained {model.classes.size} one-vs-all model(s), dim {matrix.dim}\n"
    )
    return 0


def cmd_predict_global(args) -> int:
    label_map = core.LabelMap.from_file(args.labelmap) if args.labelmap else None
    model, label_map = svm.load_ova(args.model, label_map)
    matrix = core.load_features(args.features)
    preds = svm.predict_ova_batch(model, matrix.values)
    core.write_labels(label_map.named(matrix.sample_ids, preds), args.out)
    sys.stdout.write(f"predicted {matrix.n_samples} samples\n")
    return 0


def cmd_predict_local(args) -> int:
    cfg = LocalLearnerConfig(k=args.k, svm=svm.SvmConfig(C=args.C, seed=_resolve_seed(args.seed)))
    core.check_workers(args.workers)
    train, label_map = _labeled_matrix(args.train, args.train_labels, args)
    test = core.load_features(args.test)
    preds, _, timing = local_predict_batch(train, test, cfg, workers=args.workers)
    core.write_labels(label_map.named(test.sample_ids, preds), args.out)
    sys.stderr.write(
        f"timing: search {timing.search_s:.2f}s solve {timing.solve_s:.2f}s "
        f"wall {timing.total_s:.2f}s\n"
    )
    _report_solver(timing.solves, timing.nonconverged, timing.gram_entries)
    sys.stdout.write(f"predicted {test.n_samples} samples\n")
    return 0


def cmd_knn_baseline(args) -> int:
    k = LocalLearnerConfig(k=args.k).k
    train, label_map = _labeled_matrix(args.train, args.train_labels, args)
    test = core.load_features(args.test)
    preds = knn_classify_batch(train, test, k)
    core.write_labels(label_map.named(test.sample_ids, preds), args.out)
    sys.stdout.write(f"predicted {test.n_samples} samples\n")
    return 0


def cmd_dsd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    schedule = dsd.parse_schedule(args.schedule, exclude=args.exclude or ())
    image_shape = None
    if args.flip_augment:
        try:
            h, w = (int(v) for v in args.flip_augment.lower().split("x"))
            image_shape = (h, w)
        except ValueError:
            raise ValidationError(
                f"--flip-augment expects ROWSxCOLS, got {args.flip_augment!r}"
            )
        dsd.check_image_shape(image_shape)
    cfg = dsd.TrainerConfig(
        lr=args.lr, momentum=args.momentum, batch_size=args.batch,
        patience=args.patience, seed=seed, flip_augment=image_shape is not None,
    )
    if (args.val_features is None) != (args.val_labels is None):
        raise ValidationError("--val-features and --val-labels must be given together")
    if args.val_features is None and not 0.0 < args.val_fraction < 1.0:
        raise ValidationError(f"--val-fraction must be in (0, 1), got {args.val_fraction}")
    if args.hidden < 0:
        raise ValidationError(f"--hidden must be >= 0, got {args.hidden}")
    unknown = sorted(set(args.exclude or ()) - set(dsd.mlp_layer_names(2 if args.hidden else 1)))
    if unknown:
        raise ValidationError(f"--exclude names no layer of the model: {', '.join(unknown)}")
    matrix, label_map = _labeled_matrix(args.features, args.labels, args)
    if args.val_features is not None:
        val_matrix, _ = _labeled_matrix(args.val_features, args.val_labels, args, label_map)
        Xt, yt = matrix.values, matrix.labels
        Xv, yv = val_matrix.values, val_matrix.labels
    else:
        rng = np.random.default_rng([seed, 41])
        order = rng.permutation(matrix.n_samples)
        n_val = max(1, int(matrix.n_samples * args.val_fraction))
        val_rows, train_rows = order[:n_val], order[n_val:]
        Xt, yt = matrix.values[train_rows], matrix.labels[train_rows]
        Xv, yv = matrix.values[val_rows], matrix.labels[val_rows]
    dims = [matrix.dim] + ([args.hidden] if args.hidden > 0 else []) + [label_map.n_classes]
    model = dsd.init_mlp(dims, seed=seed)
    logs = dsd.dsd_train(model, (Xt, yt), (Xv, yv), schedule, cfg, image_shape=image_shape)
    dsd.save_mlp(model, args.out)
    if args.log:
        layer_names = model.layer_names()
        lines = ["epoch,phase,lr,train_loss,val_acc," +
                 ",".join(f"zeros_{n}" for n in layer_names)]
        for entry in logs:
            zf = ",".join(f"{entry.zero_fracs[n]:.6f}" for n in layer_names)
            lines.append(
                f"{entry.epoch},{entry.phase},{entry.lr:.8g},"
                f"{entry.train_loss:.6f},{entry.val_acc:.6f},{zf}"
            )
        _write_text(args.log, "\n".join(lines) + "\n")
    sys.stdout.write(
        f"trained {schedule.total_epochs} epochs, final val_acc {logs[-1].val_acc:.6f}\n"
    )
    return 0


def cmd_sensitivity_scan(args) -> int:
    try:
        rates = tuple(float(r) for r in args.rates.split(","))
    except ValueError:
        raise ValidationError(f"--rates expects comma-separated numbers, got {args.rates!r}")
    for rate in rates:  # the scan's own rate and threshold checks, on no data
        dsd.prune_mask(np.zeros(0), rate)
    dsd.select_rates(dsd.SensitivityTable(0.0, rates, {}), args.threshold)
    model = dsd.load_mlp(args.model)
    matrix, label_map = _labeled_matrix(args.features, args.labels, args)
    width = model.layers[-1].W.shape[1]
    if label_map.n_classes != width:  # ids from another map would score wrong
        raise ValidationError(f"the label map has {label_map.n_classes} classes, the model {width} "
                              "outputs; pass the --labelmap the model was trained with")
    table = dsd.sensitivity_scan(model, matrix.values, matrix.labels, rates)
    selected = dsd.select_rates(table, max_drop_points=args.threshold)
    lines = ["layer,rate,val_acc"]
    for layer in table.acc:
        lines.append(f"{layer},0.0,{table.baseline:.6f}")
        for r in table.rates:
            lines.append(f"{layer},{r},{table.acc[layer][r]:.6f}")
    if args.out:
        _write_text(args.out, "\n".join(lines) + "\n")
    for layer, rate in selected.items():
        sys.stdout.write(f"{layer}: rate {rate}\n")
    return 0


def cmd_eval(args) -> int:
    predicted = core.read_labels(args.predictions)
    truth = core.read_labels(args.truth)
    label_map = _load_label_map(args, [*truth.values(), *predicted.values()])
    rep = report.evaluate(predicted, truth, label_map)
    if args.out:
        _write_text(str(args.out) + ".txt", report.render_text(rep))
        _write_text(str(args.out) + ".csv", report.render_csv(rep))
    sys.stdout.write(report.render_text(rep))
    return 0


def cmd_pipeline(args) -> int:
    seed = _resolve_seed(args.seed, default=None)  # None: the manifest's seed
    manifest = core.parse_manifest(args.manifest)
    t0 = time.perf_counter()
    result = run_pipeline(
        manifest, k=args.k, C=args.C, workers=args.workers, seed=seed
    )
    wall = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for method, rep in result.reports.items():
        _write_text(out / f"{method}.report.txt", report.render_text(rep))
        _write_text(out / f"{method}.report.csv", report.render_csv(rep))
        core.write_labels(result.predictions[method], out / f"{method}.predictions")
    comparison = report.render_comparison_text(result.reports)
    _write_text(out / "comparison.txt", comparison)
    _write_text(out / "comparison.csv", report.render_comparison_csv(result.reports))
    timing = result.local_timing
    _write_text(
        out / "timing.txt",
        f"wall_s {wall:.3f}\nglobal_train_s {result.global_train_s:.3f}\n"
        f"local_search_s {timing.search_s:.3f}\nlocal_solve_s {timing.solve_s:.3f}\n"
        f"local_solves {timing.solves}\nlocal_nonconverged {timing.nonconverged}\n"
        f"local_gram_entries {timing.gram_entries}\n"
        f"global_nonconverged {result.global_nonconverged}\n",
    )
    sys.stderr.write(f"pipeline wall time {wall:.2f}s\n")
    sys.stdout.write(comparison)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locallearn",
        description="Feature fusion, global/local SVM learning, BOVW encoding, "
        "and dense-sparse-dense training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("ingest", cmd_ingest, help="validate a manifest and materialize splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")

    p = add("build-vocab", cmd_build_vocab, help="build a visual vocabulary")
    p.add_argument("--images", required=True, help="directory of .pgm images")
    p.add_argument("--config", required=True, help="key-value config file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add("encode", cmd_encode, help="encode images against a vocabulary")
    p.add_argument("--images", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")

    p = add("fuse", cmd_fuse, help="L2-normalize and concatenate feature files")
    p.add_argument("--source", action="append", required=True,
                   metavar="NAME=PATH", help="repeatable, order = fusion order")
    p.add_argument("--no-normalize", action="append", metavar="NAME",
                   help="skip L2 normalization for this source")
    p.add_argument("--renormalize", action="store_true",
                   help="L2-normalize the fused vector too")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")

    p = add("train-global", cmd_train_global, help="train a one-vs-all linear SVM")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--labelmap")
    p.add_argument("-C", type=float, default=100.0)
    p.add_argument("--out", required=True)

    p = add("predict-global", cmd_predict_global, help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labelmap")
    p.add_argument("--out", required=True)

    p = add("predict-local", cmd_predict_local, help="per-query local SVM prediction")
    p.add_argument("--train", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labelmap")
    p.add_argument("-k", type=int, default=200)
    p.add_argument("-C", type=float, default=100.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add("knn-baseline", cmd_knn_baseline, help="cosine k-NN majority vote")
    p.add_argument("--train", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labelmap")
    p.add_argument("-k", type=int, default=200)
    p.add_argument("--out", required=True)

    p = add("dsd-train", cmd_dsd_train, help="dense-sparse-dense MLP training")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--labelmap")
    p.add_argument("--schedule", required=True, help='e.g. "D300,S50@0.6,D50"')
    p.add_argument("--hidden", type=int, default=64, help="0 = linear softmax")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--exclude", action="append", metavar="LAYER",
                   help="layer(s) excluded from pruning")
    p.add_argument("--flip-augment", metavar="ROWSxCOLS",
                   help="add horizontally flipped copies of image-backed rows")
    p.add_argument("--val-features")
    p.add_argument("--val-labels")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="per-epoch CSV log path")

    p = add("sensitivity-scan", cmd_sensitivity_scan,
            help="per-layer pruning sensitivity table")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--labelmap")
    p.add_argument("--rates", default="0.3,0.4,0.5,0.6")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="max accuracy drop in points")
    p.add_argument("--out", help="scan table CSV path")

    p = add("eval", cmd_eval, help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--labelmap")
    p.add_argument("--out", help="report path prefix (.txt/.csv appended)")

    p = add("pipeline", cmd_pipeline,
            help="run global SVM, local SVM, and k-NN end to end")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-k", type=int, default=200)
    p.add_argument("-C", type=float, default=100.0)
    p.add_argument("--workers", type=int, default=1)

    # Only the commands that call ``_resolve_seed`` take ``--seed``.
    for name in ("ingest", "build-vocab", "train-global", "predict-local", "dsd-train", "pipeline"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="random seed (default: $LOCALLEARN_SEED or 0)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except ComputeError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
