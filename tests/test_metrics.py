"""Closed-form and oracle checks for the sample metrics."""

import numpy as np
import pytest

from oracles import precision_recall_oracle, windowed_ssim_oracle
from qlatent.metrics import (
    MetricReport,
    cmmd_rbf,
    embed_features,
    evaluate_sets,
    frechet_distance,
    precision_recall_knn,
    ssim_pairs,
)
from qlatent.tensor import Tensor

RIDGE = 1e-6


def test_embed_pool_exact_block_means():
    # one image whose 8x8 pooling blocks are constant: pooling must
    # return those constants in scan order, per channel
    img = np.zeros((1, 3, 16, 16))
    vals = np.arange(64, dtype=float).reshape(8, 8) / 64.0
    for c in range(3):
        img[0, c] = np.kron(vals + c, np.ones((2, 2)))
    feats = embed_features(img, method="pool")
    assert feats.shape == (1, 192)
    expected = np.concatenate([(vals + c).ravel() for c in range(3)])
    np.testing.assert_allclose(feats[0], expected, atol=1e-12)


def test_embed_project_seeded_and_shaped():
    rng = np.random.default_rng(0)
    imgs = rng.random((5, 3, 16, 16))
    a = embed_features(imgs, method="project", dim=32, seed=7)
    b = embed_features(imgs, method="project", dim=32, seed=7)
    c = embed_features(imgs, method="project", dim=32, seed=8)
    assert a.shape == (5, 32)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6


def test_embed_validation():
    with pytest.raises(ValueError):
        embed_features(np.zeros((3, 16, 16)))
    with pytest.raises(ValueError):
        embed_features(np.zeros((1, 3, 12, 12)), method="pool")
    with pytest.raises(ValueError):
        embed_features(np.zeros((1, 3, 16, 16)), method="nope")


def test_frechet_identical_sets_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 6))
    assert frechet_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-8)


def test_frechet_pure_translation_is_squared_shift():
    # y = x + delta leaves both sample covariances identical, so the
    # trace term cancels exactly and only ||delta||^2 remains
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 4))
    delta = np.array([3.0, -1.0, 0.5, 0.0])
    fd = frechet_distance(x, x + delta)
    assert fd == pytest.approx(float(np.sum(delta ** 2)), abs=1e-9)


def test_frechet_matches_diagonal_closed_form():
    # rows chosen so the sample covariances are exactly diagonal:
    # cov(x) = diag(2a^2/3, 2b^2/3) with ddof=1 over 4 points
    def cross(a, b):
        return np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])

    x = cross(1.5, 0.5)
    y = cross(0.5, 1.0) + np.array([2.0, 0.0])
    lx = np.array([2 * 1.5 ** 2 / 3, 2 * 0.5 ** 2 / 3]) + RIDGE
    ly = np.array([2 * 0.5 ** 2 / 3, 2 * 1.0 ** 2 / 3]) + RIDGE
    expected = 4.0 + float(np.sum((np.sqrt(lx) - np.sqrt(ly)) ** 2))
    assert frechet_distance(x, y) == pytest.approx(expected, abs=1e-9)


def test_frechet_scalar_closed_form():
    # d=1: distance is (mu_x - mu_y)^2 + (sqrt(vx) - sqrt(vy))^2
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 1)) * 2.0 + 1.0
    y = rng.standard_normal((25, 1)) * 0.5 - 1.0
    vx = float(np.var(x, ddof=1)) + RIDGE
    vy = float(np.var(y, ddof=1)) + RIDGE
    expected = (float(x.mean()) - float(y.mean())) ** 2 \
        + (np.sqrt(vx) - np.sqrt(vy)) ** 2
    assert frechet_distance(x, y) == pytest.approx(expected, rel=1e-9)


def test_frechet_validation():
    x = np.zeros((5, 3))
    with pytest.raises(ValueError):
        frechet_distance(x, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        frechet_distance(x[:1], x)


def test_cmmd_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((4, 3)) + 0.7
    sigma = 1.3

    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2 * sigma ** 2))

    n, m = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(n) for j in range(n) if i != j)
    yy = sum(k(y[i], y[j]) for i in range(m) for j in range(m) if i != j)
    xy = sum(k(x[i], y[j]) for i in range(n) for j in range(m))
    u_stat = xx / (n * (n - 1)) + yy / (m * (m - 1)) - 2 * xy / (n * m)
    xx_v = xx + n
    yy_v = yy + m
    v_stat = xx_v / n ** 2 + yy_v / m ** 2 - 2 * xy / (n * m)
    assert cmmd_rbf(x, y, sigma=sigma) == pytest.approx(u_stat, abs=1e-12)
    assert cmmd_rbf(x, y, sigma=sigma, unbiased=False) \
        == pytest.approx(v_stat, abs=1e-12)


def test_cmmd_identical_sets():
    rng = np.random.default_rng(5)
    n = 30
    x = rng.standard_normal((n, 4))
    # V-statistic vanishes exactly on identical sets; the U-statistic
    # there reduces to (2/n)(mean off-diagonal kernel - 1) in [-2/n, 0]
    assert cmmd_rbf(x, x.copy(), unbiased=False) == pytest.approx(0.0, abs=1e-12)
    u_stat = cmmd_rbf(x, x.copy())
    assert -2.0 / n <= u_stat <= 0.0


def test_cmmd_orders_by_separation():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((60, 4))
    near = cmmd_rbf(x, rng.standard_normal((60, 4)) + 0.5)
    far = cmmd_rbf(x, rng.standard_normal((60, 4)) + 5.0)
    assert 0.0 < near < far


def test_cmmd_separated_clusters_positive():
    # clusters tight against sigma and far apart: within-kernels ~ 1,
    # cross-kernel ~ 0, so the squared discrepancy approaches 2
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 3)) * 0.01
    y = rng.standard_normal((40, 3)) * 0.01 + 4.0
    assert cmmd_rbf(x, y, sigma=1.0) == pytest.approx(2.0, abs=1e-2)


def test_ssim_pairs_identical_is_one():
    rng = np.random.default_rng(8)
    x = rng.random((3, 3, 24, 24))
    assert ssim_pairs(x, x.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ssim_pairs_constant_images_closed_form():
    c1 = (0.01) ** 2
    x = np.full((1, 1, 8, 8), 0.25)
    y = np.full((1, 1, 8, 8), 0.75)
    expected = (2 * 0.25 * 0.75 + c1) / (0.25 ** 2 + 0.75 ** 2 + c1)
    assert ssim_pairs(x, y) == pytest.approx(expected, rel=1e-12)


def test_ssim_pairs_matches_conv_oracle():
    # window means from block sums against a depthwise box conv2d, at
    # the dataset's 32 px and the paper's 64 px
    rng = np.random.default_rng(9)
    for size in (32, 64):
        x = rng.random((2, 3, size, size))
        y = np.clip(x + rng.normal(0.0, 0.1, x.shape), 0.0, 1.0)
        want = windowed_ssim_oracle(Tensor(x), Tensor(y)).item()
        assert ssim_pairs(x, y) == pytest.approx(want, abs=1e-12)


def test_ssim_pairs_validation():
    with pytest.raises(ValueError):
        ssim_pairs(np.zeros((1, 1, 16, 16)), np.zeros((1, 1, 16, 8)))
    with pytest.raises(ValueError):
        ssim_pairs(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 4)))
    with pytest.raises(ValueError, match=r"expected \(N, C, H, W\)"):
        ssim_pairs(np.zeros((3, 16, 16)), np.zeros((3, 16, 16)))


def test_precision_recall_identical_sets():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 3))
    assert precision_recall_knn(x, x.copy()) == (1.0, 1.0)


def test_precision_recall_disjoint_clusters():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((20, 3)) * 0.01
    fake = rng.standard_normal((20, 3)) * 0.01 + 100.0
    assert precision_recall_knn(real, fake) == (0.0, 0.0)


def test_precision_recall_mode_collapse():
    # fake samples collapsed onto one real point: precise but low recall
    rng = np.random.default_rng(12)
    real = rng.standard_normal((30, 2))
    fake = real[0] + rng.standard_normal((30, 2)) * 1e-4
    precision, recall = precision_recall_knn(real, fake)
    assert precision == 1.0
    assert recall < 0.5


@pytest.mark.parametrize("k", [1, 2, 3])
def test_precision_recall_matches_loop_oracle(k):
    # small integer coordinates keep every squared distance exact, so
    # duplicate points and ties on a k-NN radius must come out the same
    # as in the loop; Gaussian sets cover the generic case
    rng = np.random.default_rng(20 + k)
    for trial in range(30):
        d = int(rng.choice([2, 3, 8]))
        n, m = rng.integers(k + 1, k + 12, size=2)
        if trial % 2:
            real = rng.standard_normal((n, d))
            fake = rng.standard_normal((m, d)) + rng.choice([0.0, 0.7])
        else:
            real = rng.integers(0, 3, (n, d)).astype(float)
            fake = rng.integers(0, 3, (m, d)).astype(float)
            fake[0] = real[0]
        assert precision_recall_knn(real, fake, k=k) \
            == precision_recall_oracle(real, fake, k)


def test_precision_recall_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError):
        precision_recall_knn(x, np.zeros((10, 3)))
    with pytest.raises(ValueError):
        precision_recall_knn(x[:3], x)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            precision_recall_knn(x, x.copy(), k=k)


def test_evaluate_sets_identical():
    rng = np.random.default_rng(13)
    imgs = rng.random((12, 3, 16, 16))
    report = evaluate_sets(imgs, imgs.copy())
    assert report.frechet == pytest.approx(0.0, abs=1e-8)
    assert report.ssim == pytest.approx(1.0, abs=1e-12)
    assert report.precision == 1.0 and report.recall == 1.0


def test_metric_report_csv_row():
    report = MetricReport(frechet=1.0, cmmd=0.5, ssim=0.25,
                          precision=1.0, recall=0.0)
    row = report.csv_row()
    assert len(row) == len(MetricReport.CSV_HEADER) == 5
    assert row[0] == "1.00000000"
    assert all(isinstance(v, str) for v in row)
