"""Synthetic retina-style image corpus with deterministic generation.

Images are 64x64 RGB floats in [0, 1]: a dark field holding a circular
fundus with an optic disc, a cup, and vessel walks.  Three classes:

* 0: clean fundus
* 1: fundus with bright and dark lesion blobs
* 2: fundus under a translucent haze layer

Every image is a pure function of ``(seed, index)``, so a dataset can
be regenerated bit for bit from its manifest parameters.  Files are
written as binary PPM (P6) plus a CSV manifest with train/val/test
splits of 60/20/20 (floored, remainder to train).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS_NAMES = ("healthy", "lesioned", "hazy")

N_VESSELS = 6
VESSEL_STEPS = 48
LESION_COUNT_RANGE = (4, 9)  # integers(lo, hi): hi is exclusive
HAZE_OPACITY_RANGE = (0.3, 0.6)
_MANIFEST_COLUMNS = ("filename", "label", "split")


@dataclass(frozen=True)
class FundusParams:
    """Image side in pixels; the default matches the 64x64 corpus."""

    size: int = 64

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")


def _disc_mask(xx, yy, cx, cy, r):
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def _paint_walk(img, start, angle, rng, size, color, steps):
    x, y = start
    pos = np.array([x, y], dtype=np.float64)
    direction = np.array([np.cos(angle), np.sin(angle)])
    for _ in range(steps):
        direction += rng.normal(0.0, 0.25, 2)
        direction /= np.linalg.norm(direction) + 1e-12
        pos += direction * rng.uniform(0.8, 1.6)
        px, py = int(round(pos[0])), int(round(pos[1]))
        if not (0 <= px < size and 0 <= py < size):
            break
        lo_x, hi_x = max(px - 1, 0), min(px + 1, size - 1)
        lo_y, hi_y = max(py - 1, 0), min(py + 1, size - 1)
        img[lo_y:hi_y + 1, lo_x:hi_x + 1] = (
            0.6 * img[lo_y:hi_y + 1, lo_x:hi_x + 1] + 0.4 * color)


def generate_image(params: FundusParams, label: int,
                   rng: np.random.Generator) -> np.ndarray:
    """One (size, size, 3) float image in [0, 1] for the given class."""
    if label not in (0, 1, 2):
        raise ValueError(f"label must be 0, 1 or 2, got {label}")
    s = params.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    img = np.full((s, s, 3), 0.02)

    cx = s * rng.uniform(0.47, 0.53)
    cy = s * rng.uniform(0.47, 0.53)
    radius = s * rng.uniform(0.38, 0.44)
    fundus = _disc_mask(xx, yy, cx, cy, radius)

    rr = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2) / radius
    shade = np.clip(1.0 - 0.55 * rr ** 2, 0.0, 1.0)
    base = np.stack([
        rng.uniform(0.55, 0.70) * shade,
        rng.uniform(0.22, 0.32) * shade,
        rng.uniform(0.08, 0.14) * shade,
    ], axis=-1)
    base += rng.normal(0.0, 0.015, base.shape)
    img[fundus] = base[fundus]

    side = 1.0 if rng.random() < 0.5 else -1.0
    ox = cx + side * radius * rng.uniform(0.30, 0.45)
    oy = cy + radius * rng.uniform(-0.12, 0.12)
    disc = _disc_mask(xx, yy, ox, oy, s * 0.065)
    cup = _disc_mask(xx, yy, ox, oy, s * 0.032)
    img[disc & fundus] = np.array([0.92, 0.78, 0.42])
    img[cup & fundus] = np.array([0.98, 0.92, 0.62])

    vessel_color = np.array([0.32, 0.06, 0.05])
    for _ in range(N_VESSELS):
        angle = rng.uniform(0, 2 * np.pi)
        _paint_walk(img, (ox, oy), angle, rng, s, vessel_color,
                    VESSEL_STEPS)
    img[~fundus] = 0.02

    if label == 1:
        for _ in range(int(rng.integers(*LESION_COUNT_RANGE))):
            ang = rng.uniform(0, 2 * np.pi)
            dist = radius * np.sqrt(rng.uniform(0.05, 0.9))
            lx, ly = cx + dist * np.cos(ang), cy + dist * np.sin(ang)
            lr = rng.uniform(1.0, max(1.2, s * 0.05))
            blob = _disc_mask(xx, yy, lx, ly, lr) & fundus
            if rng.random() < 0.5:
                color = np.array([0.88, 0.80, 0.30])  # bright exudate
            else:
                color = np.array([0.22, 0.03, 0.03])  # dark haemorrhage
            img[blob] = 0.25 * img[blob] + 0.75 * color
    elif label == 2:
        opacity = rng.uniform(*HAZE_OPACITY_RANGE)
        haze = np.array([0.78, 0.74, 0.70])
        img[fundus] = (1 - opacity) * img[fundus] + opacity * haze

    return np.clip(img, 0.0, 1.0)


def image_rng(seed: int, index: int) -> np.random.Generator:
    """The generator that owns image ``index`` of dataset ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def split_sizes(n: int) -> tuple[int, int, int]:
    """60/20/20 with floored val/test and the remainder in train."""
    val = int(n * 0.2)
    test = int(n * 0.2)
    return n - val - test, val, test


# ---- PPM I/O -----------------------------------------------------------


def write_ppm(path, img: np.ndarray):
    """Store a float image in [0, 1] as binary PPM (P6, maxval 255)."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {img.shape}")
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Load a binary PPM written by :func:`write_ppm` (or compatible)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM file")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    pos += 1  # single whitespace after the header
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


# ---- dataset generation --------------------------------------------------


def generate_dataset(out_dir, n_images: int, seed: int,
                     params: FundusParams | None = None) -> Path:
    """Write ``n_images`` PPM files plus ``manifest.csv``; returns its path.

    Classes cycle 0, 1, 2 so every split stays balanced; splits are
    assigned by index order.  Regenerating with the same arguments
    produces byte-identical files.
    """
    if n_images < 5:
        raise ValueError(f"need at least 5 images, got {n_images}")
    params = params or FundusParams()
    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    n_train, n_val, _ = split_sizes(n_images)
    rows = []
    for i in range(n_images):
        label = i % 3
        img = generate_image(params, label, image_rng(seed, i))
        name = f"img_{i:05d}.ppm"
        write_ppm(images_dir / name, img)
        if i < n_train:
            split = "train"
        elif i < n_train + n_val:
            split = "val"
        else:
            split = "test"
        rows.append((f"images/{name}", label, split))
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(row)
    return manifest


def load_manifest(manifest_path, columns=_MANIFEST_COLUMNS) -> list[dict]:
    """Rows of a CSV manifest with ``columns`` (by default a
    ``generate_dataset`` one), labels as integers and splits checked."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{manifest_path}: not a dataset manifest, "
                             f"missing columns {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{manifest_path}: empty manifest")
    for line, row in enumerate(rows, start=2):
        try:
            row["label"] = int(row["label"])
        except (TypeError, ValueError):
            raise ValueError(f"{manifest_path}: line {line}: label "
                             f"{row['label']!r} is not an integer") from None
        if "split" in columns and row["split"] not in ("train", "val", "test"):
            raise ValueError(f"{manifest_path}: line {line}: unknown split "
                             f"{row['split']!r}")
    return rows


def quarter_train_rows(rows: list[dict]) -> list[dict]:
    """Keep every fourth training row (plus all val/test rows).

    Deterministic data-budget ablation: the reduced set is a fixed
    subset, not a resample.
    """
    out = []
    kept = 0
    for row in rows:
        if row["split"] != "train":
            out.append(row)
            continue
        if kept % 4 == 0:
            out.append(row)
        kept += 1
    return out


def load_split(manifest_path, split: str, quarter_train: bool = False):
    """Images (N, 3, H, W) in [0, 1] and labels (N,) for one split."""
    rows = load_manifest(manifest_path)
    if quarter_train:
        rows = quarter_train_rows(rows)
    rows = [r for r in rows if r["split"] == split]
    if not rows:
        raise ValueError(f"no rows in split {split!r}")
    return load_images(manifest_path, rows)


def load_images(manifest_path, rows: list[dict]):
    """Images (N, 3, H, W) in [0, 1] and labels (N,) of manifest rows."""
    root = Path(manifest_path).parent
    images = np.stack([
        read_ppm(root / r["filename"]).transpose(2, 0, 1) for r in rows])
    labels = np.array([r["label"] for r in rows], dtype=np.int64)
    return images, labels
