"""Seeded input generators for the locallearn benchmark.

Run as ``python3 bench/gen.py <workload> <seed> <out_dir>`` from the
checkout root.  It writes the files the program reads (binary feature
files, labels, label map, splits and manifest; or PGM images and raw-pixel
feature files) plus ``meta.json`` with the generator's own checks.  It runs
in a process of its own so that its memory never counts toward the
benchmark's peak RSS.

Fused workloads.  Samples live in a small latent space and reach the
program through two fixed "extractors": a dense 512-d "deep" block (a
random linear map of the latent point plus noise) and a sparse binary
1,600-d "bovw" presence block (Bernoulli bits whose rates are a logistic
function of the latent point).  The layout of the latent space and both
extractors come from a fixed world seed, and so does the training corpus
(and the solver seed the manifest names), as for a deployed model:
``--seed`` draws the test queries, the same number from every
sub-cluster, and the row order of the "bovw" file.  Global training then
does the same work on every seed, and what differs between seeds is which
queries the local SVMs and the k-NN baseline answer.

* ``fused-interleaved``: 14 latent locations, each holding two
  sub-clusters of two different classes, offset along a direction of
  their own.  Every class appears at 4 locations.  A k=200 neighbourhood
  covers about one location, so it nearly always holds two or more
  classes and local SVMs separate them, while one global hyperplane per
  class cannot follow the per-location offsets.
* ``fused-separable``: one well-separated cluster per class, and more
  training rows and queries, so nearly every neighbourhood is
  single-class and local prediction never calls the solver.

Textures.  Stripe and checkerboard 48x48 images from ``locallearn.synth``:
training images for the vocabulary, test images to encode, and a larger
raw-pixel set for DSD training.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

DEEP_DIM = 512
BOVW_DIM = 1600
N_CLASSES = 7
K = 200
WORLD_SEED = 20180427
CORPUS_SEED = 9001

FUSED = {
    "fused-interleaved": {
        "n_train": 3000, "n_test": 140, "latent": 6, "locations_per_class": 4,
        "spread": 6.0, "offset": 4.5, "sigma": 1.0, "deep_noise": 1.0,
    },
    "fused-separable": {
        "n_train": 4200, "n_test": 420, "latent": 6, "locations_per_class": 1,
        "spread": 6.0, "offset": 0.0, "sigma": 1.0, "deep_noise": 1.0,
    },
}
BOVW_GAIN = 0.15
BOVW_BIAS = -3.0

TEXTURE_SIZE = 48
TEXTURES = {"train_per_class": 5, "test_per_class": 4,
            "dsd_train_per_class": 200, "dsd_val_per_class": 100}


def _world(spec: dict):
    """Latent sub-cluster centres with their classes, and both extractors."""
    rng = np.random.default_rng([WORLD_SEED, spec["locations_per_class"]])
    latent = spec["latent"]
    per_class = spec["locations_per_class"]
    slots = np.repeat(np.arange(N_CLASSES), per_class)
    if per_class == 1:
        classes = slots
        centres = rng.normal(0.0, spec["spread"], (N_CLASSES, latent))
    else:
        while True:  # pair classes up, never a class with itself
            pairs = rng.permutation(slots).reshape(-1, 2)
            if np.all(pairs[:, 0] != pairs[:, 1]):
                break
        n_loc = pairs.shape[0]
        locs = rng.normal(0.0, spec["spread"], (n_loc, latent))
        dirs = rng.normal(0.0, 1.0, (n_loc, latent))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        side = np.tile([-0.5, 0.5], n_loc)[:, None] * spec["offset"]
        centres = np.repeat(locs, 2, axis=0) + side * np.repeat(dirs, 2, axis=0)
        classes = pairs.ravel()
    deep_map = rng.normal(0.0, 1.0, (latent, DEEP_DIM))
    bovw_gain = rng.normal(0.0, BOVW_GAIN, (latent, BOVW_DIM))
    bovw_bias = rng.normal(BOVW_BIAS, 0.5, BOVW_DIM)
    return centres, classes, deep_map, bovw_gain, bovw_bias


def _draw(world, spec: dict, rng, n: int, stratified: bool):
    """``n`` samples; with ``stratified`` the same number from every
    sub-cluster, in random order."""
    centres, classes, deep_map, bovw_gain, bovw_bias = world
    if stratified:
        sub = rng.permutation(np.repeat(np.arange(centres.shape[0]), n // centres.shape[0]))
        n = sub.size
    else:
        sub = rng.integers(0, centres.shape[0], n)
    z = centres[sub] + rng.normal(0.0, spec["sigma"], (n, centres.shape[1]))
    deep = z @ deep_map + rng.normal(0.0, spec["deep_noise"], (n, DEEP_DIM))
    rate = 1.0 / (1.0 + np.exp(-(z @ bovw_gain + bovw_bias)))
    bits = (rng.random((n, BOVW_DIM)) < rate).astype(np.float64)
    return deep, bits, classes[sub]


def write_features(path: Path, ids: list[str], values: np.ndarray) -> None:
    """Binary feature file: magic LLFB, u32 version 1, u32 dim, u64 rows,
    then per row a u16 id length, the id bytes and dim little-endian f64."""
    id_len = len(ids[0])
    dim = values.shape[1]
    row = np.dtype([("n", "<u2"), ("id", f"S{id_len}"), ("v", "<f8", (dim,))])
    rows = np.empty(len(ids), dtype=row)
    rows["n"] = id_len
    rows["id"] = [s.encode("ascii") for s in ids]
    rows["v"] = values
    with open(path, "wb") as fh:
        fh.write(b"LLFB")
        fh.write(np.array([1, dim], dtype="<u4").tobytes())
        fh.write(np.array([len(ids)], dtype="<u8").tobytes())
        fh.write(rows.tobytes())


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def neighbourhood_classes(train_x, train_y, test_x, k: int = K) -> np.ndarray:
    """Distinct classes among each query's k cosine-nearest training rows
    (the benchmark's own check of what the workload is built to do)."""
    sims = _unit_rows(test_x) @ _unit_rows(train_x).T
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    return np.array([np.unique(train_y[row]).size for row in top])


def gen_fused(name: str, seed: int, out: Path) -> dict:
    spec = FUSED[name]
    world = _world(spec)
    tr_deep, tr_bits, tr_y = _draw(world, spec, np.random.default_rng([CORPUS_SEED, 1]),
                                   spec["n_train"], stratified=False)
    te_deep, te_bits, te_y = _draw(world, spec, np.random.default_rng([seed, 2]),
                                   spec["n_test"], stratified=True)
    ids = [f"tr{i:05d}" for i in range(tr_y.size)] + [f"te{i:05d}" for i in range(te_y.size)]
    deep = np.vstack([tr_deep, te_deep])
    bits = np.vstack([tr_bits, te_bits])
    y = np.concatenate([tr_y, te_y])
    write_features(out / "deep.fv", ids, deep)
    # The bovw file lists samples in another order, as a second extractor
    # would; fusion must align the two by sample id.
    order = np.random.default_rng([seed, 3]).permutation(len(ids))
    write_features(out / "bovw.fv", [ids[i] for i in order], bits[order])
    names = [f"class{c}" for c in range(N_CLASSES)]
    (out / "classes.txt").write_text("".join(n + "\n" for n in names), encoding="utf-8")
    (out / "labels.csv").write_text(
        "".join(f"{sid},{names[c]}\n" for sid, c in zip(ids, y)), encoding="utf-8")
    (out / "splits.csv").write_text(
        "".join(f"{sid},{'train' if sid.startswith('tr') else 'test'}\n" for sid in ids),
        encoding="utf-8")
    (out / "dataset.conf").write_text(
        f"source deep deep.fv dim={DEEP_DIM}\n"
        f"source bovw bovw.fv dim={BOVW_DIM}\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n"
        f"seed {CORPUS_SEED}\n",
        encoding="utf-8",
    )
    fused = lambda d, b: np.hstack([_unit_rows(d), _unit_rows(b)])  # noqa: E731
    n_cls = neighbourhood_classes(fused(tr_deep, tr_bits), tr_y, fused(te_deep, te_bits))
    return {
        "n_train": int(tr_y.size),
        "n_test": int(te_y.size),
        "bovw_density": float(bits.mean()),
        "single_class_frac": float(np.mean(n_cls == 1)),
        "classes_per_neighbourhood_mean": float(n_cls.mean()),
    }


def write_pgm(path: Path, img: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def gen_textures(seed: int, out: Path) -> dict:
    from locallearn.synth import checker_image, stripe_image

    makers = {"stripes": lambda rng: stripe_image(TEXTURE_SIZE, rng),
              "checker": lambda rng: checker_image(TEXTURE_SIZE, rng)}
    meta = {"classes": list(makers)}
    for part in ("train", "test"):
        rng = np.random.default_rng([seed, 11 if part == "train" else 12])
        folder = out / part
        folder.mkdir()
        names = []
        for i in range(TEXTURES[f"{part}_per_class"]):
            for cls, make in makers.items():
                fname = f"{cls}_{i:03d}.pgm"
                write_pgm(folder / fname, make(rng))
                names.append(fname)
        meta[part] = names
    for part in ("dsd_train", "dsd_val"):
        rng = np.random.default_rng([seed, 13 if part == "dsd_train" else 14])
        ids, rows, labels = [], [], []
        for i in range(TEXTURES[f"{part}_per_class"]):
            for cls, make in makers.items():
                ids.append(f"{cls}{i:05d}")
                rows.append(make(rng).ravel() / 255.0)
                labels.append(cls)
        write_features(out / f"{part}.fv", ids, np.array(rows))
        (out / f"{part}_labels.csv").write_text(
            "".join(f"{sid},{c}\n" for sid, c in zip(ids, labels)), encoding="utf-8")
    (out / "classes.txt").write_text("".join(c + "\n" for c in makers), encoding="utf-8")
    return meta


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    if workload in FUSED:
        meta = gen_fused(workload, seed, out)
    elif workload == "bovw-textures":
        sys.path.insert(0, str(Path("src").resolve()))
        meta = gen_textures(seed, out)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
