"""Sample-quality metrics between image sets.

Images enter as (N, C, H, W) arrays in [0, 1].  Feature embeddings are
deliberately lightweight (pooled pixels or a seeded random projection),
which keeps every metric deterministic and dependency-free.  SSIM is a
``Tensor`` node, the same one the VAE loss trains through; the
distribution metrics are plain numpy over one squared-distance kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

EMBED_METHODS = ("pool", "project")


def embed_features(images: np.ndarray, method: str = "pool",
                   dim: int = 64, seed: int = 0) -> np.ndarray:
    """(N, C, H, W) images in [0,1] -> (N, d) float features.

    ``pool``: 8x8 average pooling per channel, flattened.
    ``project``: seeded Gaussian random projection to ``dim``.
    """
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, H, W), got {images.shape}")
    n, c, h, w = images.shape
    if method == "pool":
        if h % 8 or w % 8:
            raise ValueError("pool embedding needs sides divisible by 8")
        bh, bw = h // 8, w // 8
        pooled = images.reshape(n, c, 8, bh, 8, bw).mean(axis=(3, 5))
        return pooled.reshape(n, c * 64)
    if method == "project":
        flat = images.reshape(n, c * h * w)
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((flat.shape[1], dim))
        return flat @ proj / np.sqrt(flat.shape[1])
    raise ValueError(f"unknown embedding method {method!r}")


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a symmetric PSD matrix via eigh."""
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(x: np.ndarray, y: np.ndarray,
                     ridge: float = 1e-6) -> float:
    """Frechet distance between Gaussian fits of two feature sets.

    ||mu_x - mu_y||^2 + tr(Sx + Sy - 2 (Sx^1/2 Sy Sx^1/2)^1/2), with a
    small ridge on both covariances so rank-deficient feature sets stay
    well defined.
    """
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("feature sets must be (N, d) with matching d")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("need at least 2 samples per set")
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    d = x.shape[1]
    cov_x = np.cov(x, rowvar=False) + ridge * np.eye(d)
    cov_y = np.cov(y, rowvar=False) + ridge * np.eye(d)
    sx = _sym_sqrt(cov_x)
    inner = sx @ cov_y @ sx
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    mean_term = float(np.sum((mu_x - mu_y) ** 2))
    trace_term = float(np.trace(cov_x) + np.trace(cov_y)
                       - 2.0 * np.sum(np.sqrt(vals)))
    return mean_term + trace_term


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``, clipped at 0."""
    return np.clip(np.sum(a ** 2, axis=1)[:, None]
                   + np.sum(b ** 2, axis=1)[None, :]
                   - 2.0 * a @ b.T, 0.0, None)


def cmmd_rbf(x: np.ndarray, y: np.ndarray, sigma: float = 10.0,
             unbiased: bool = True) -> float:
    """Squared maximum mean discrepancy under an RBF kernel.

    The default U-statistic drops the kernel diagonals (unbiased, can
    dip below zero); ``unbiased=False`` gives the V-statistic, which is
    exactly zero when the two sets coincide.
    """
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("feature sets must be (N, d) with matching d")
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("need at least 2 samples per set")
    kxx, kyy, kxy = (np.exp(-_sq_dists(a, b) / (2.0 * sigma ** 2))
                     for a, b in ((x, x), (y, y), (x, y)))
    if unbiased:
        xx = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
        yy = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    else:
        xx = kxx.sum() / (n * n)
        yy = kyy.sum() / (m * m)
    return float(xx + yy - 2.0 * kxy.mean())


def _window_means(t: Tensor, window: int, stride: int) -> Tensor:
    """Means of ``t`` over square windows at ``stride``, as one node.

    A window is ``m = window // stride`` blocks a side of ``stride``
    pixels each, so each mean is a sum of m x m neighbouring block sums
    over ``window**2``.  Rows and columns that no window covers are
    cropped; they get zero gradient.
    """
    n, c, h, w = t.shape
    m = window // stride
    nh, nw = (h - window) // stride + 1, (w - window) // stride + 1
    bh, bw = nh + m - 1, nw + m - 1  # blocks a side under some window
    ch, cw = bh * stride, bw * stride
    blocks = t.data[:, :, :ch, :cw].reshape(n, c, bh, stride, cw).sum(
        axis=3).reshape(n, c, bh, bw, stride).sum(axis=4)
    rows = blocks[:, :, :nh].copy()
    for i in range(1, m):
        rows += blocks[:, :, i:i + nh]
    out_data = rows[..., :nw].copy()
    for j in range(1, m):
        out_data += rows[..., j:j + nw]
    out_data /= window * window

    def backward():
        if not t.requires_grad:
            return
        g = out.grad / (window * window)
        # each window's gradient spreads over its m x m blocks ...
        g_rows = np.zeros((n, c, nh, bw))
        for j in range(m):
            g_rows[..., j:j + nw] += g
        g_blocks = np.zeros((n, c, bh, bw))
        for i in range(m):
            g_blocks[:, :, i:i + nh] += g_rows
        # ... and each block's over its pixels
        dx = np.repeat(np.repeat(g_blocks, stride, axis=2), stride, axis=3)
        if (ch, cw) != (h, w):
            dx = np.pad(dx, ((0, 0), (0, 0), (0, h - ch), (0, w - cw)))
        t._accumulate(dx, owned=True)

    out = Tensor._from_op(out_data, (t,), backward)
    return out


def windowed_ssim(x: Tensor, y: Tensor, window: int = 8, stride: int = 4,
                  data_range: float = 1.0) -> Tensor:
    """Mean SSIM over overlapping windows, differentiable end to end.

    The windowed form of Wang et al. 2004 (IEEE TIP 13(4)).  Window
    statistics are box means taken from block sums, so ``window`` must
    be a multiple of ``stride``.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) image sets, got {x.shape}")
    if stride < 1 or window < stride or window % stride:
        raise ValueError(f"window {window} is not a positive multiple of "
                         f"stride {stride}")
    n, c, h, w = x.shape
    if h < window or w < window:
        raise ValueError(f"images smaller than the {window}px window")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    def wmean(t: Tensor) -> Tensor:
        return _window_means(t, window, stride)

    mu_x = wmean(x)
    mu_y = wmean(y)
    xx = wmean(x * x) - mu_x * mu_x
    yy = wmean(y * y) - mu_y * mu_y
    xy = wmean(x * y) - mu_x * mu_y
    numer = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    denom = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return (numer / denom).mean()


def ssim_pairs(x: np.ndarray, y: np.ndarray) -> float:
    """Mean ``windowed_ssim`` over index-matched image pairs."""
    return windowed_ssim(Tensor(x), Tensor(y)).item()


def precision_recall_knn(real: np.ndarray, fake: np.ndarray,
                         k: int = 3) -> tuple[float, float]:
    """Manifold precision and recall from k-th neighbour radii.

    A fake sample counts as precise if it lies within the k-NN ball of
    some real sample; recall swaps the roles.
    """
    if real.ndim != 2 or fake.ndim != 2 or real.shape[1] != fake.shape[1]:
        raise ValueError("feature sets must be (N, d) with matching d")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if real.shape[0] <= k or fake.shape[0] <= k:
        raise ValueError(f"need more than k={k} samples per set")

    d_fake_real = np.sqrt(_sq_dists(fake, real))

    def radii(feats):
        d = np.sqrt(_sq_dists(feats, feats))
        np.fill_diagonal(d, np.inf)
        return np.sort(d, axis=1)[:, k - 1]

    precision = float(np.mean(
        np.any(d_fake_real <= radii(real)[None, :], axis=1)))
    recall = float(np.mean(
        np.any(d_fake_real <= radii(fake)[:, None], axis=0)))
    return precision, recall


@dataclass(frozen=True)
class MetricReport:
    """One evaluation row: a generated set against a reference set."""

    frechet: float
    cmmd: float
    ssim: float
    precision: float
    recall: float

    CSV_HEADER = ("frechet", "cmmd", "ssim", "precision", "recall")

    def csv_row(self) -> list[str]:
        return [f"{getattr(self, k):.8f}" for k in self.CSV_HEADER]


def evaluate_sets(real_images: np.ndarray, fake_images: np.ndarray,
                  method: str = "pool", seed: int = 0,
                  k: int = 3) -> MetricReport:
    """All metrics between a reference image set and a generated set.

    SSIM pairs images by index over the common prefix of the two sets;
    the distribution metrics use the full sets.
    """
    real_f = embed_features(real_images, method=method, seed=seed)
    fake_f = embed_features(fake_images, method=method, seed=seed)
    n_pair = min(real_images.shape[0], fake_images.shape[0])
    precision, recall = precision_recall_knn(real_f, fake_f, k=k)
    return MetricReport(
        frechet=frechet_distance(real_f, fake_f),
        cmmd=cmmd_rbf(real_f, fake_f),
        ssim=ssim_pairs(real_images[:n_pair], fake_images[:n_pair]),
        precision=precision,
        recall=recall,
    )
