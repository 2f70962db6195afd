import numpy as np
import pytest

from qlatent.data import (
    FundusParams,
    generate_dataset,
    generate_image,
    image_rng,
    load_manifest,
    load_split,
    read_ppm,
    split_sizes,
    write_ppm,
)


def test_image_shape_and_range():
    img = generate_image(FundusParams(), 0, image_rng(0, 0))
    assert img.shape == (64, 64, 3)
    assert img.min() >= 0.0
    assert img.max() <= 1.0


def test_images_deterministic_per_seed_and_index():
    a = generate_image(FundusParams(), 1, image_rng(7, 3))
    b = generate_image(FundusParams(), 1, image_rng(7, 3))
    np.testing.assert_array_equal(a, b)
    c = generate_image(FundusParams(), 1, image_rng(7, 4))
    assert np.abs(a - c).max() > 0.01


def test_class_signatures():
    params = FundusParams()
    healthy = np.stack([
        generate_image(params, 0, image_rng(0, i)) for i in range(8)])
    hazy = np.stack([
        generate_image(params, 2, image_rng(0, i)) for i in range(8)])
    # haze blends the fundus toward a bright gray
    assert hazy.mean() > healthy.mean() + 0.02
    blue_lift = hazy[..., 2].mean() - healthy[..., 2].mean()
    assert blue_lift > 0.02


def test_lesions_change_pixels_inside_fundus():
    params = FundusParams()
    base = generate_image(params, 0, image_rng(3, 5))
    lesioned = generate_image(params, 1, image_rng(3, 5))
    # same rng stream start, so the fundus matches until lesions paint
    assert np.abs(lesioned - base).max() > 0.1


def test_label_validation():
    with pytest.raises(ValueError):
        generate_image(FundusParams(), 3, image_rng(0, 0))
    with pytest.raises(ValueError):
        FundusParams(size=8)


def test_split_sizes():
    assert split_sizes(300) == (180, 60, 60)
    assert split_sizes(301) == (181, 60, 60)
    assert split_sizes(10) == (6, 2, 2)
    assert split_sizes(3200) == (1920, 640, 640)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (16, 12, 3))
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    quantized = np.round(img * 255) / 255
    np.testing.assert_allclose(back, quantized, atol=1e-12)
    with open(path, "rb") as fh:
        assert fh.read(2) == b"P6"


def test_ppm_reader_handles_comments(tmp_path):
    img = np.zeros((2, 2, 3))
    img[0, 0] = [1.0, 0.5, 0.0]
    path = tmp_path / "c.ppm"
    data = np.clip(np.round(img * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n# a comment line\n2 2\n255\n")
        fh.write(data.tobytes())
    back = read_ppm(path)
    assert back.shape == (2, 2, 3)
    assert abs(back[0, 0, 0] - 1.0) < 1e-12


def test_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.ppm"
    with open(path, "wb") as fh:
        fh.write(b"P3\n2 2\n255\n" + b"0 " * 12)
    with pytest.raises(ValueError):
        read_ppm(path)


def test_generate_dataset_layout_and_determinism(tmp_path):
    m1 = generate_dataset(tmp_path / "a", 30, seed=5)
    m2 = generate_dataset(tmp_path / "b", 30, seed=5)
    rows = load_manifest(m1)
    assert len(rows) == 30
    assert [r["label"] for r in rows[:6]] == [0, 1, 2, 0, 1, 2]
    splits = [r["split"] for r in rows]
    assert splits.count("train") == 18
    assert splits.count("val") == 6
    assert splits.count("test") == 6
    # byte-identical regeneration
    with open(m1, "rb") as fa, open(m2, "rb") as fb:
        assert fa.read() == fb.read()
    name = rows[17]["filename"]
    with open(m1.parent / name, "rb") as fa, \
            open(m2.parent / name, "rb") as fb:
        assert fa.read() == fb.read()


def test_generate_dataset_different_seeds_differ(tmp_path):
    m1 = generate_dataset(tmp_path / "a", 6, seed=1)
    m2 = generate_dataset(tmp_path / "b", 6, seed=2)
    name = load_manifest(m1)[0]["filename"]
    with open(m1.parent / name, "rb") as fa, \
            open(m2.parent / name, "rb") as fb:
        assert fa.read() != fb.read()


def test_quarter_train_keeps_every_fourth(tmp_path):
    manifest = generate_dataset(tmp_path, 40, seed=0)
    train_all, labels_all = load_split(manifest, "train")
    train_kept, labels_kept = load_split(manifest, "train",
                                         quarter_train=True)
    assert len(train_all) == 24
    assert len(train_kept) == 6
    np.testing.assert_array_equal(train_kept, train_all[::4])
    np.testing.assert_array_equal(labels_kept, labels_all[::4])
    # val and test untouched
    for split, size in (("val", 8), ("test", 8)):
        images, labels = load_split(manifest, split)
        kept, kept_labels = load_split(manifest, split, quarter_train=True)
        assert len(images) == size
        np.testing.assert_array_equal(kept, images)
        np.testing.assert_array_equal(kept_labels, labels)


def test_load_split_shapes(tmp_path):
    manifest = generate_dataset(tmp_path, 15, seed=3)
    images, labels = load_split(manifest, "train")
    assert images.shape == (9, 3, 64, 64)
    assert labels.shape == (9,)
    assert images.min() >= 0 and images.max() <= 1
    assert set(labels) == {0, 1, 2}
    with pytest.raises(ValueError):
        load_split(manifest, "nope")
