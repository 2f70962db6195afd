"""Round-trip and validation tests for the binary checkpoint format."""

import dataclasses
from enum import Enum

import numpy as np
import pytest

from qlatent.checkpoint import (
    MAGIC,
    Checkpoint,
    config_from_echo,
    load_checkpoint,
    load_state_dict,
    save_checkpoint,
    state_dict,
)
from qlatent.diffusion import UNetConfig
from qlatent.layers import Linear, Module
from qlatent.tensor import Tensor
from qlatent.vae import VAE, VAEConfig


def _toy_tensors(rng):
    return {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(4),
        "scale": np.array(2.5),
    }


def test_round_trip_values_and_shapes(tmp_path):
    rng = np.random.default_rng(0)
    tensors = _toy_tensors(rng)
    path = save_checkpoint(tmp_path / "m.qldm", "toy",
                           {"lr": 0.001, "layers": [1, 2], "flag": True},
                           tensors)
    ckpt = load_checkpoint(path)
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.kind == "toy"
    assert ckpt.config == {"lr": 0.001, "layers": [1, 2], "flag": True}
    assert set(ckpt.tensors) == set(tensors)
    for name, arr in tensors.items():
        got = ckpt.tensors[name]
        assert got.dtype == np.float32
        assert got.shape == arr.shape
        np.testing.assert_allclose(got, arr.astype(np.float32))


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = _toy_tensors(rng)
    p1 = save_checkpoint(tmp_path / "a.qldm", "toy", {"x": 1}, tensors)
    ckpt = load_checkpoint(p1)
    p2 = save_checkpoint(tmp_path / "b.qldm", ckpt.kind, ckpt.config,
                         ckpt.tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_name_order_does_not_change_bytes(tmp_path):
    rng = np.random.default_rng(2)
    tensors = _toy_tensors(rng)
    reversed_order = dict(reversed(list(tensors.items())))
    p1 = save_checkpoint(tmp_path / "a.qldm", "toy", {}, tensors)
    p2 = save_checkpoint(tmp_path / "b.qldm", "toy", {}, reversed_order)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.qldm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "x.qldm"
    path.write_bytes(MAGIC + (99).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(3)
    path = save_checkpoint(tmp_path / "x.qldm", "toy", {},
                           _toy_tensors(rng))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(4)
    path = save_checkpoint(tmp_path / "x.qldm", "toy", {},
                           _toy_tensors(rng))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


class _TwoLayer(Module):
    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).silu())


def test_state_dict_restores_module_outputs(tmp_path):
    src = _TwoLayer(seed=5)
    path = save_checkpoint(tmp_path / "m.qldm", "toy", {},
                           state_dict(src))
    dst = _TwoLayer(seed=6)
    x = Tensor(np.random.default_rng(7).standard_normal((3, 4)))
    before = dst(x).data.copy()
    load_state_dict(dst, load_checkpoint(path).tensors)
    after = dst(x).data
    assert np.abs(after - before).max() > 1e-3
    np.testing.assert_allclose(after, src(x).data, atol=1e-5)


def test_state_dict_mismatches_rejected():
    model = _TwoLayer(seed=8)
    good = state_dict(model)
    missing = dict(good)
    missing.pop("fc1.weight")
    with pytest.raises(ValueError, match="missing"):
        load_state_dict(model, missing)
    extra = dict(good)
    extra["ghost"] = np.zeros(1, dtype=np.float32)
    with pytest.raises(ValueError, match="unexpected"):
        load_state_dict(model, extra)
    bad_shape = dict(good)
    bad_shape["fc1.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        load_state_dict(model, bad_shape)


def test_vae_checkpoint_round_trip(tmp_path):
    config = VAEConfig(image_size=16, base_channels=4)
    src = VAE(config, seed=9)
    path = save_checkpoint(tmp_path / "vae.qldm", "vae",
                           {"image_size": 16}, state_dict(src))
    dst = VAE(config, seed=10)
    load_state_dict(dst, load_checkpoint(path).tensors)
    x = Tensor(np.random.default_rng(11).random((2, 3, 16, 16)))
    mu_src, _ = src.encode(x)
    mu_dst, _ = dst.encode(x)
    np.testing.assert_allclose(mu_dst.data, mu_src.data, atol=1e-4)


def _non_default(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, Enum):
        return next(member for member in type(value) if member != value)
    return 2 * value


@pytest.mark.parametrize("cls", [VAEConfig, UNetConfig])
def test_config_echo_round_trip(tmp_path, cls):
    fields = dataclasses.fields(cls)
    config = cls(**{f.name: _non_default(f.default) for f in fields})
    assert all(getattr(config, f.name) != f.default for f in fields)
    assert config_from_echo(cls, dataclasses.asdict(config)) == config
    # through the file: the kind comes back as a string, next to run keys
    run_keys = {"timesteps": 7, "beta_start": 0.5, "latent_scale": 0.25,
                "image_size": 999}
    echo = dict(run_keys, **dataclasses.asdict(config))
    path = save_checkpoint(tmp_path / "c.qldm", "toy", echo, {})
    rebuilt = config_from_echo(cls, load_checkpoint(path).config)
    assert rebuilt == config
    for f in fields:
        assert type(getattr(rebuilt, f.name)) is type(getattr(config, f.name))
