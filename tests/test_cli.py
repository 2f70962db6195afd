"""End-to-end command tests: exit codes, artifacts, idempotency.

A module-scoped pipeline fixture runs the full command chain once at
tiny scale (32px images, 4-channel models, handfuls of steps); the
tests then inspect its artifacts and probe the error paths.
"""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from qlatent import cli
from qlatent.ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from qlatent.checkpoint import (config_from_echo, load_checkpoint,
                                save_checkpoint, state_dict)
from qlatent.cli import main
from qlatent.data import load_split, read_ppm
from qlatent.diffusion import UNet, UNetConfig
from qlatent.layers import QuantumLayer
from qlatent.noise import (ConfusionMatrix, EmpiricalDistribution, NoiseModel,
                           expected_hamming_distance, mitigate_confusion,
                           sample_noisy)
from qlatent.statevector import index_to_bitstring, run_circuit
from qlatent.vae import VAE, VAEConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    manifest = str(out / "dataset" / "manifest.csv")
    steps = [
        ["make-dataset", "--out", str(out),
         "--set", "n_images=30", "--set", "image_size=32"],
        ["train-vae", "--out", str(out),
         "--set", f"data={manifest}",
         "--set", "base_channels=4", "--set", "epochs=2",
         "--set", "batch_size=8", "--set", "max_images=12"],
        ["train-ddpm", "--out", str(out),
         "--set", f"data={manifest}",
         "--set", f"vae_checkpoint={out / 'vae.qldm'}",
         "--set", "base_channels=4", "--set", "epochs=1",
         "--set", "batch_size=8", "--set", "timesteps=100",
         "--set", "max_images=12"],
        ["sample", "--out", str(out),
         "--set", f"vae_checkpoint={out / 'vae.qldm'}",
         "--set", f"ddpm_checkpoint={out / 'ddpm.qldm'}",
         "--set", "n_per_class=2", "--set", "steps=3",
         "--set", "alphas=0,0.05"],
        ["evaluate", "--out", str(out),
         "--set", f"data={manifest}",
         "--set", f"generated={out / 'samples.csv'}",
         "--set", "knn_k=2"],
    ]
    for argv in steps:
        assert main(argv) == 0, f"command failed: {argv[0]}"
    return out


def test_make_dataset_artifacts(pipeline):
    assert (pipeline / "dataset" / "manifest.csv").is_file()
    assert (pipeline / "make_dataset_config.txt").is_file()
    assert (pipeline / "make_dataset_runinfo.txt").is_file()
    log = (pipeline / "make_dataset_log.txt").read_text()
    assert "train images = 18" in log


def test_train_vae_artifacts(pipeline):
    assert (pipeline / "vae.qldm").is_file()
    assert (pipeline / "vae_ep1.qldm").is_file()
    assert (pipeline / "vae_ep2.qldm").is_file()
    lines = (pipeline / "vae_loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,step,l1,ssim,kl,total"
    assert len(lines) > 2
    assert (pipeline / "vae_loss.svg").is_file()
    assert "model parameters" in (pipeline / "train_vae_log.txt").read_text()


def test_train_ddpm_artifacts(pipeline):
    ckpt = load_checkpoint(pipeline / "ddpm.qldm")
    assert ckpt.kind == "unet"
    assert 0 < ckpt.config["latent_scale"]
    assert ckpt.config["latent_size"] == 4
    log = (pipeline / "train_ddpm_log.txt").read_text()
    assert "zero-prediction baseline" in log


def test_sample_artifacts(pipeline):
    lines = (pipeline / "samples.csv").read_text().splitlines()
    assert lines[0] == "alpha,filename,label"
    # 2 per class x 3 classes x 2 alphas
    assert len(lines) == 1 + 12
    assert (pipeline / "samples" / "a0").is_dir()
    assert (pipeline / "samples" / "a0p05").is_dir()
    img = read_ppm(pipeline / "samples" / "a0" / "img_c0_000.ppm")
    assert img.shape == (32, 32, 3)
    assert 0.0 <= img.min() and img.max() <= 1.0


def test_evaluate_metrics_rows(pipeline):
    lines = (pipeline / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,n_real,n_generated,frechet,cmmd")
    assert len(lines) == 3  # header + one row per alpha
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "0.05"


def test_evaluate_rerun_is_byte_identical(pipeline):
    before = (pipeline / "metrics.csv").read_bytes()
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["evaluate", "--out", str(pipeline),
                 "--set", f"data={manifest}",
                 "--set", f"generated={pipeline / 'samples.csv'}",
                 "--set", "knn_k=2"])
    assert code == 0
    assert (pipeline / "metrics.csv").read_bytes() == before


def test_resolved_config_echo(pipeline):
    echo = (pipeline / "sample_config.txt").read_text()
    assert "alphas = 0,0.05" in echo
    assert "steps = 3" in echo


def test_compare_models_identical_rows(pipeline, tmp_path):
    manifest = str(pipeline / "dataset" / "manifest.csv")
    vae = str(pipeline / "vae.qldm")
    ddpm = str(pipeline / "ddpm.qldm")
    code = main(["compare-models", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "variants=base,twin",
                 "--set", f"base_vae={vae}", "--set", f"base_ddpm={ddpm}",
                 "--set", f"twin_vae={vae}", "--set", f"twin_ddpm={ddpm}",
                 "--set", "twin_cdcnn_nodes=8",
                 "--set", "n_per_class=2", "--set", "steps=3",
                 "--set", "knn_k=2"])
    assert code == 0
    lines = (tmp_path / "compare_models.csv").read_text().splitlines()
    assert len(lines) == 3
    base = lines[1].split(",")
    twin = lines[2].split(",")
    # identical checkpoints and seeds give identical metric columns
    assert base[1:5] == twin[1:5]
    assert base[6:] == twin[6:]
    assert base[5] == "0" and twin[5] == str(4 * 8 ** 4)


def test_compare_models_missing_checkpoint(pipeline, tmp_path, capsys):
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["compare-models", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "variants=only",
                 "--set", "only_vae=/missing/vae.qldm",
                 "--set", f"only_ddpm={pipeline / 'ddpm.qldm'}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "variant only" in err and "/missing/vae.qldm" in err


def test_compare_models_rejects_a_mismatched_pair(pipeline, tmp_path,
                                                  capsys):
    # a 2-channel autoencoder next to a UNet trained on 4 latent channels
    echo = dict(load_checkpoint(pipeline / "vae.qldm").config,
                latent_channels=2)
    vae = tmp_path / "vae2.qldm"
    save_checkpoint(vae, "vae", echo,
                    state_dict(VAE(config_from_echo(VAEConfig, echo))))
    out = tmp_path / "out"
    code = main(["compare-models", "--out", str(out),
                 "--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
                 "--set", "variants=narrow",
                 "--set", f"narrow_vae={vae}",
                 "--set", f"narrow_ddpm={pipeline / 'ddpm.qldm'}",
                 "--set", "n_per_class=2", "--set", "knn_k=2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "variant narrow" in err and "checkpoint mismatch" in err
    assert not list(out.glob("*_config.txt"))


def test_compare_models_equals_sample_then_evaluate(pipeline, tmp_path,
                                                    monkeypatch):
    vae, ddpm = pipeline / "vae.qldm", pipeline / "ddpm.qldm"
    manifest = pipeline / "dataset" / "manifest.csv"
    assert main(["sample", "--out", str(tmp_path / "sample"),
                 "--set", f"vae_checkpoint={vae}",
                 "--set", f"ddpm_checkpoint={ddpm}", "--set", "seed=3",
                 "--set", "n_per_class=2", "--set", "steps=3",
                 "--set", "alphas=0"]) == 0
    assert main(["evaluate", "--out", str(tmp_path / "eval"),
                 "--set", f"data={manifest}", "--set", "seed=3",
                 "--set", f"generated={tmp_path / 'sample' / 'samples.csv'}",
                 "--set", "knn_k=2"]) == 0
    generated = []
    generate = cli._generate

    def recording(*args):
        generated.append(generate(*args))
        return generated[-1]

    monkeypatch.setattr(cli, "_generate", recording)
    assert main(["compare-models", "--out", str(tmp_path / "compare"),
                 "--set", f"data={manifest}", "--set", "seed=3",
                 "--set", "variants=q",
                 "--set", f"q_vae={vae}", "--set", f"q_ddpm={ddpm}",
                 "--set", "n_per_class=2", "--set", "steps=3",
                 "--set", "knn_k=2"]) == 0
    written = sorted((tmp_path / "sample" / "samples" / "a0").iterdir())
    assert len(generated) == 1 and len(written) == 6
    np.testing.assert_array_equal(
        generated[0], np.stack([read_ppm(p).transpose(2, 0, 1)
                                for p in written]))
    compared = (tmp_path / "compare" / "compare_models.csv") \
        .read_text().splitlines()[1].split(",")
    evaluated = (tmp_path / "eval" / "metrics.csv") \
        .read_text().splitlines()[1].split(",")
    assert evaluated[0] == "0"
    assert compared[6:] == evaluated[3:]


@pytest.mark.parametrize("labels", [None, "2,0,1,0,1,0"])
def test_evaluate_pairs_ssim_within_a_class(pipeline, tmp_path, monkeypatch,
                                            labels):
    # "2,0,1,0,1,0" relabels the alpha-0 set so that class 0 holds 3
    # generated images against the test split's 2
    samples = pipeline / "samples.csv"
    rows = [line.split(",") for line in samples.read_text().splitlines()[1:]]
    if labels is not None:
        rows = [[a, str(pipeline / f), lab] for (a, f, _), lab
                in zip(rows, labels.split(","))]
        samples = tmp_path / "samples.csv"
        samples.write_text("alpha,filename,label\n" + "".join(
            ",".join(r) + "\n" for r in rows))
    gen = [(read_ppm(pipeline / f).transpose(2, 0, 1), int(lab))
           for _, f, lab in rows]
    real_images, real_labels = load_split(pipeline / "dataset" /
                                          "manifest.csv", "test")
    real = list(zip(real_images, real_labels))
    calls = []
    evaluate_sets = cli.evaluate_sets

    def recording(real_set, gen_set, **kwargs):
        calls.append((real_set, gen_set))
        return evaluate_sets(real_set, gen_set, **kwargs)

    monkeypatch.setattr(cli, "evaluate_sets", recording)
    assert _evaluate(pipeline, tmp_path / "eval", samples, "knn_k=2") == 0

    def label(image, pool):
        return [lab for im, lab in pool if np.array_equal(im, image)][0]

    assert len(calls) == len({a for a, _, _ in rows})
    for r, g in calls:
        n = min(len(r), len(g))
        assert n >= 5
        assert [label(x, real) for x in r[:n]] \
            == [label(x, gen) for x in g[:n]]


def test_sample_rejects_alphas_that_print_alike(pipeline, tmp_path, capsys):
    code = main(["sample", "--out", str(tmp_path),
                 "--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
                 "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}",
                 "--set", "alphas=0.1234567,0.1234568"])
    assert code == 1
    assert "alphas: 0.1234567, 0.1234568 print as one value" \
        in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.txt"))


def test_quantum_train_logs_parameter_count(pipeline, tmp_path):
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["train-vae", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "base_channels=4", "--set", "epochs=1",
                 "--set", "batch_size=4", "--set", "max_images=4",
                 "--set", "quantum=true", "--set", "q_qubits=2",
                 "--set", "q_layers=1"])
    assert code == 0
    log = (tmp_path / "train_vae_log.txt").read_text()
    assert "quantum circuit parameters per layer = 6" in log
    assert "3 * 1 layers * 2 qubits" in log


@pytest.mark.parametrize("kind, line", [
    ("be", "quantum circuit parameters per layer = 6 (2 layers * 3 qubits)"),
    ("S2D", "quantum circuit parameters per layer = 11 "
            "(3 + 2 * 2 layers * 2 pairs)"),
])
def test_quantum_train_logs_parameter_arithmetic(pipeline, tmp_path, kind,
                                                 line):
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["train-vae", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "base_channels=4", "--set", "epochs=1",
                 "--set", "batch_size=4", "--set", "max_images=4",
                 "--set", "quantum=true", "--set", f"q_kind={kind}",
                 "--set", "q_qubits=3", "--set", "q_layers=2"])
    assert code == 0
    assert line in (tmp_path / "train_vae_log.txt").read_text().splitlines()
    ckpt = load_checkpoint(tmp_path / "vae.qldm")
    assert ckpt.config["q_kind"] == kind.upper()


def test_q_kind_must_name_one_kind(pipeline, tmp_path, capsys):
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["train-vae", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "quantum=true", "--set", "q_kind=be,SE"])
    assert code == 1
    assert "exactly one ansatz kind" in capsys.readouterr().err
    assert not (tmp_path / "vae.qldm").exists()


def test_sample_loads_checkpoints_with_the_original_echo_keys(pipeline,
                                                              tmp_path):
    # echo key sets as the first .qldm writers produced them; files of
    # that shape must keep loading as fields are added to the configs
    vae_echo = {"image_size": 32, "in_channels": 3, "latent_channels": 4,
                "base_channels": 4, "kl_weight": 1e-6, "ssim_weight": 1.0,
                "quantum": False, "q_qubits": 4, "q_layers": 2,
                "q_kind": "ESE2"}
    ddpm = load_checkpoint(pipeline / "ddpm.qldm")
    unet_echo = {"latent_channels": 4, "latent_size": 4, "base_channels": 4,
                 "time_dim": 64, "num_classes": 3, "quantum": False,
                 "q_qubits": 4, "q_layers": 2, "q_kind": "ESE2",
                 "timesteps": 100, "beta_start": 1e-4, "beta_end": 0.02,
                 "latent_scale": ddpm.config["latent_scale"],
                 "image_size": 32}
    save_checkpoint(tmp_path / "vae.qldm", "vae", vae_echo,
                    load_checkpoint(pipeline / "vae.qldm").tensors)
    save_checkpoint(tmp_path / "ddpm.qldm", "unet", unet_echo, ddpm.tensors)

    def sample(out, ckpt_dir):
        assert main(["sample", "--out", str(out),
                     "--set", f"vae_checkpoint={ckpt_dir / 'vae.qldm'}",
                     "--set", f"ddpm_checkpoint={ckpt_dir / 'ddpm.qldm'}",
                     "--set", "n_per_class=1", "--set", "steps=2"]) == 0
        return [p.read_bytes()
                for p in sorted((out / "samples" / "a0").iterdir())]

    assert sample(tmp_path / "old", tmp_path) \
        == sample(tmp_path / "new", pipeline)


def test_sample_rejects_a_vae_as_the_denoiser(pipeline, tmp_path, capsys):
    vae = pipeline / "vae.qldm"
    code = main(["sample", "--out", str(tmp_path),
                 "--set", f"vae_checkpoint={vae}",
                 "--set", f"ddpm_checkpoint={vae}"])
    assert code == 1
    assert "expected 'unet'" in capsys.readouterr().err


def test_sample_gate_noise_applies_at_alpha_zero(pipeline, tmp_path):
    # a quantum denoiser whose output maps are far from zero, so the
    # quantum path visibly moves the images
    echo = dict(load_checkpoint(pipeline / "ddpm.qldm").config,
                quantum=True, q_qubits=2, q_layers=1)
    config = config_from_echo(UNetConfig, echo)
    unet = UNet(config, seed=0)
    rng = np.random.default_rng(0)
    for module in unet.iter_modules():
        if isinstance(module, QuantumLayer):
            module.post_map.weight.data[:] = rng.normal(
                size=module.post_map.weight.shape)
    ddpm = tmp_path / "qddpm.qldm"
    save_checkpoint(ddpm, "unet", echo, state_dict(unet))

    def sample(out, *noise):
        argv = ["sample", "--out", str(out),
                "--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
                "--set", f"ddpm_checkpoint={ddpm}",
                "--set", "n_per_class=1", "--set", "steps=2",
                "--set", "alphas=0", "--set", "shots=200",
                "--set", "trajectories=10"]
        for setting in noise:
            argv += ["--set", setting]
        assert main(argv) == 0
        return [p.read_bytes()
                for p in sorted((out / "samples" / "a0").iterdir())]

    exact = sample(tmp_path / "exact")
    assert sample(tmp_path / "exact_again") == exact
    assert sample(tmp_path / "gate_noise", "p1=0.1", "p2=0.3") != exact


@pytest.mark.parametrize("setting", ["p1=0.7", "trajectories=0"])
def test_ansatz_bench_rejects_bad_noise_settings(tmp_path, capsys, setting):
    code = main(["ansatz-bench", "--out", str(tmp_path),
                 "--set", "qubits=4", "--set", "layers=1",
                 "--set", setting])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ansatz_bench_config.txt").exists()


@pytest.mark.parametrize("settings", [
    ("alphas=0,0.05", "trajectories=0"), ("alphas=0.7",),
    ("alphas=0", "p1=-0.1"), ("alphas=0", "p2=0.5")])
def test_sample_rejects_bad_noise_settings(pipeline, tmp_path, capsys,
                                           settings):
    argv = ["sample", "--out", str(tmp_path),
            "--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
            "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sample_config.txt").exists()


@pytest.mark.parametrize("command", ["sample", "ansatz-bench"])
def test_zero_shots_are_refused_at_the_check_step(pipeline, tmp_path, capsys,
                                                  command):
    argv = [command, "--out", str(tmp_path), "--set", "shots=0"]
    if command == "sample":
        argv += ["--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
                 "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}"]
    else:
        argv += ["--set", "qubits=4", "--set", "layers=1"]
    assert main(argv) == 1
    assert "error: shots: must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.txt"))


@pytest.mark.parametrize("setting", ["batch_size=0", "batch_size=-1"])
def test_sample_rejects_bad_batch_size(pipeline, tmp_path, capsys, setting):
    assert main(["sample", "--out", str(tmp_path),
                 "--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
                 "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}",
                 "--set", setting]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sample_config.txt").exists()


@pytest.mark.parametrize("setting", ["knn_k=0", "n_per_class=0", "steps=1"])
def test_compare_models_rejects_bad_sizes(pipeline, tmp_path, capsys,
                                          setting):
    vae, ddpm = pipeline / "vae.qldm", pipeline / "ddpm.qldm"
    code = main(["compare-models", "--out", str(tmp_path),
                 "--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
                 "--set", "variants=base",
                 "--set", f"base_vae={vae}", "--set", f"base_ddpm={ddpm}",
                 "--set", "n_per_class=2", "--set", "steps=3",
                 "--set", setting])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "compare_models_config.txt").exists()


def _schema(command):
    """The command's schema; compare-models' with one variant ``v``."""
    return cli.COMMANDS[command][0] or cli._compare_schema({"variants": "v"})


_PATH_KEYS = {"data", "generated", "vae_checkpoint", "ddpm_checkpoint",
              "v_vae", "v_ddpm"}
_BOUNDED = [(command, field) for command in cli.COMMANDS
            for field in _schema(command) if field.low is not None]


@pytest.mark.parametrize("command, field", _BOUNDED,
                         ids=[f"{c}-{f.name}" for c, f in _BOUNDED])
def test_each_bound_is_refused_before_any_input_is_read(tmp_path, capsys,
                                                        command, field):
    # every input path names a missing file, so only a bound checked
    # before any read can be the error reported
    argv = [command, "--out", str(tmp_path),
            "--set", f"{field.name}={field.low - 1}"]
    if command == "compare-models":
        argv += ["--set", "variants=v"]
    for key in sorted(_PATH_KEYS & {f.name for f in _schema(command)}):
        argv += ["--set", f"{key}={tmp_path / 'missing'}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: {field.name}: must be >= {field.low}\n"
    assert not list(tmp_path.glob("*_config.txt"))


@pytest.mark.parametrize("command, setting, message", [
    ("train-vae", "q_qubits=1", "ansatz needs 2 to 20 qubits, got 1"),
    ("train-vae", "q_layers=0", "ansatz needs >= 1 layer, got 0"),
    ("train-vae", "q_qubits=21", "ansatz needs 2 to 20 qubits, got 21"),
    ("train-ddpm", "q_qubits=1", "ansatz needs 2 to 20 qubits, got 1"),
], ids=["vae-1q", "vae-0l", "vae-21q", "ddpm-1q"])
def test_training_rejects_quantum_settings_at_the_check_step(
        pipeline, tmp_path, capsys, command, setting, message):
    argv = [command, "--out", str(tmp_path),
            "--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
            "--set", "base_channels=4", "--set", "quantum=true"]
    if command == "train-ddpm":
        argv += ["--set", f"vae_checkpoint={pipeline / 'vae.qldm'}"]
    assert main(argv + ["--set", setting]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.txt"))


def test_ansatz_bench_rejects_more_qubits_than_the_simulator(tmp_path,
                                                             capsys):
    assert main(["ansatz-bench", "--out", str(tmp_path),
                 "--set", "qubits=21", "--set", "layers=1"]) == 1
    assert "error: ansatz needs 2 to 20 qubits, got 21" \
        in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.txt"))


def test_evaluate_refuses_a_samples_csv_as_the_real_manifest(pipeline,
                                                             tmp_path,
                                                             capsys):
    samples = pipeline / "samples.csv"
    out = tmp_path / "eval"
    assert main(["evaluate", "--out", str(out), "--set", f"data={samples}",
                 "--set", f"generated={samples}", "--set", "knn_k=2"]) == 1
    assert f"error: {samples}: not a dataset manifest, missing columns " \
        "split" in capsys.readouterr().err
    assert not list(out.glob("*_config.txt"))


@pytest.mark.parametrize("command, source", [
    ("train-vae", "dataset/manifest.csv"), ("evaluate", "samples.csv")],
    ids=["train-vae", "evaluate"])
def test_training_refuses_a_manifest_label_that_is_not_an_integer(
        pipeline, tmp_path, capsys, command, source):
    lines = (pipeline / source).read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index("label")] = "two"
    lines[3] = ",".join(cells)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / command
    if command == "train-vae":
        argv = ["--set", f"data={manifest}"]
    else:
        argv = ["--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
                "--set", f"generated={manifest}", "--set", "knn_k=2"]
    assert main([command, "--out", str(out)] + argv) == 1
    assert f"error: {manifest}: line 4: label 'two' is not an integer" \
        in capsys.readouterr().err
    assert not list(out.glob("*_config.txt"))


@pytest.mark.parametrize("command, config_cls", [
    ("train-vae", VAEConfig), ("train-ddpm", UNetConfig)])
def test_training_schema_defaults_match_the_model_config(command,
                                                         config_cls):
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    shared = [f for f in cli.COMMANDS[command][0] if f.name in defaults]
    assert {f.name for f in shared} >= {"base_channels", "quantum",
                                        "q_qubits", "q_layers", "q_kind"}
    for field in shared:
        assert field.default == defaults[field.name], field.name


def test_train_vae_takes_image_size_from_the_dataset(pipeline, tmp_path,
                                                     capsys):
    manifest = pipeline / "dataset" / "manifest.csv"
    assert main(["train-vae", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", "image_size=32"]) == 1
    assert "unknown config key 'image_size'" in capsys.readouterr().err
    assert load_checkpoint(pipeline / "vae.qldm").config["image_size"] == 32


def test_ansatz_bench_outputs(tmp_path):
    code = main(["ansatz-bench", "--out", str(tmp_path),
                 "--set", "qubits=4,5", "--set", "layers=1",
                 "--set", "gv_samples=30", "--set", "ee_draws=4",
                 "--set", "shots=200", "--set", "trajectories=20"])
    assert code == 0
    lines = (tmp_path / "ansatz_bench.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["kind", "n_qubits", "n_layers", "param_count",
                          "two_qubit_gates"]
    assert "hamming_control" in header
    assert len(lines) == 1 + 2 * 3  # two qubit counts x three kinds
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["kind"] == "ESE2":
            # nearest-neighbour circuits route without extra swaps
            assert row["inserted_swaps"] == "0"
            assert row["routed_two_qubit_gates"] == row["two_qubit_gates"]
    # two qubit counts cannot support a slope fit: header only
    slopes = (tmp_path / "bp_slopes.csv").read_text().splitlines()
    assert slopes == ["kind,log10_gv_slope"]
    for name in ("gv_vs_qubits.svg", "ee_vs_params.svg",
                 "hamming_vs_params.svg"):
        assert (tmp_path / name).is_file()


@pytest.mark.parametrize("alpha", [0.05, 0.0])
def test_ansatz_bench_hamming_equals_the_bitstring_path(tmp_path, monkeypatch,
                                                        alpha):
    # full-precision CSV floats, checked against sample_noisy +
    # mitigate_confusion + expected_hamming_distance on bitstring dicts;
    # 40 shots leave most 6-qubit strings unobserved, which moves the
    # mitigated marginals unless only observed strings keep probability
    monkeypatch.setattr(cli, "_f", lambda v: repr(float(v)))
    assert main(["ansatz-bench", "--out", str(tmp_path),
                 "--set", "kinds=BE,SE", "--set", "qubits=4,6",
                 "--set", "layers=2", "--set", "gv_samples=30",
                 "--set", "ee_draws=2", "--set", "shots=40",
                 "--set", "trajectories=10", "--set", "p1=0.001",
                 "--set", "p2=0.02", "--set", f"readout_alpha={alpha}"]) == 0
    lines = (tmp_path / "ansatz_bench.csv").read_text().splitlines()
    header = lines[0].split(",")
    noise = NoiseModel(readout_alpha=alpha, p1=0.001, p2=0.02,
                       trajectories=10)
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        row = dict(zip(header, line.split(",")))
        spec = AnsatzSpec(AnsatzKind(row["kind"]), int(row["n_qubits"]), 2)
        n, row_seed = spec.n_qubits, 100 * i
        circuit = build_ansatz(spec, np.zeros(param_count(spec)))
        theta = np.random.default_rng(row_seed + 2).uniform(
            0.0, 2 * np.pi, param_count(spec))
        exact = EmpiricalDistribution(n, {
            index_to_bitstring(j, n): float(p) for j, p in
            enumerate(run_circuit(circuit, theta).probabilities) if p > 0})
        noisy = sample_noisy(circuit, theta, noise, 40, row_seed + 3)
        mitigated = noisy if alpha == 0 else EmpiricalDistribution(
            n, mitigate_confusion(noisy, ConfusionMatrix.symmetric(n, alpha)))
        assert abs(float(row["hamming_raw"])
                   - expected_hamming_distance(noisy, exact)) <= 1e-12
        assert abs(float(row["hamming_mitigated"])
                   - expected_hamming_distance(mitigated, exact)) <= 1e-12


def test_config_file_layering(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("n_images = 20\nimage_size = 32\n")
    code = main(["make-dataset", "--out", str(tmp_path),
                 "--config", str(ini), "--set", "n_images=25"])
    assert code == 0
    echo = (tmp_path / "make_dataset_config.txt").read_text()
    assert "n_images = 25" in echo
    assert "image_size = 32" in echo
    manifest = (tmp_path / "dataset" / "manifest.csv").read_text()
    assert len(manifest.splitlines()) == 1 + 25


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command", "--out", "/tmp/x"]) == 1
    assert main(["make-dataset"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_unknown_config_key_exit_1(tmp_path, capsys):
    code = main(["make-dataset", "--out", str(tmp_path),
                 "--set", "n_imgaes=10"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_prerequisite_exit_1(tmp_path, capsys):
    code = main(["train-ddpm", "--out", str(tmp_path),
                 "--set", "data=/nope/manifest.csv",
                 "--set", "vae_checkpoint=/nope/vae.qldm"])
    assert code == 1
    assert "vae_checkpoint" in capsys.readouterr().err


def test_corrupt_checkpoint_exit_1(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.qldm"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["sample", "--out", str(tmp_path),
                 "--set", f"vae_checkpoint={bad}",
                 "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}"])
    assert code == 1
    assert "corrupt checkpoint" in capsys.readouterr().err


def test_runtime_failure_exit_2(pipeline, tmp_path, capsys):
    # a directory in the way of metrics.csv passes every check, so the
    # failure surfaces only when the run writes its table
    (tmp_path / "metrics.csv").mkdir()
    manifest = str(pipeline / "dataset" / "manifest.csv")
    code = main(["evaluate", "--out", str(tmp_path),
                 "--set", f"data={manifest}",
                 "--set", f"generated={pipeline / 'samples.csv'}",
                 "--set", "knn_k=2"])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def _rewrite_samples(pipeline, path, alpha=None, label=None):
    """The pipeline's samples.csv at ``path``, with absolute filenames
    and optionally every alpha or label replaced."""
    lines = (pipeline / "samples.csv").read_text().splitlines()
    body = [f"{alpha or a},{pipeline / f},{label or lab}"
            for a, f, lab in (line.split(",") for line in lines[1:])]
    path.write_text("\n".join([lines[0], *body]) + "\n")
    return path


def _evaluate(pipeline, out, generated, *settings):
    return main(["evaluate", "--out", str(out),
                 "--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
                 "--set", f"generated={generated}",
                 *[a for kv in settings for a in ("--set", kv)]])


def test_evaluate_rejects_sets_too_small_for_knn_k(pipeline, tmp_path,
                                                   capsys):
    # n_per_class=1 gives 3 images per alpha: too few for knn_k=3
    assert main(["sample", "--out", str(tmp_path / "run"),
                 "--set", f"vae_checkpoint={pipeline / 'vae.qldm'}",
                 "--set", f"ddpm_checkpoint={pipeline / 'ddpm.qldm'}",
                 "--set", "n_per_class=1", "--set", "steps=2",
                 "--set", "alphas=0"]) == 0
    out = tmp_path / "eval"
    assert _evaluate(pipeline, out, tmp_path / "run" / "samples.csv") == 1
    err = capsys.readouterr().err
    assert "generated: the generated set for alpha 0 holds 3 images; " \
        "knn_k=3 needs at least 4" in err
    assert not list(out.glob("*_config.txt"))


def test_evaluate_rejects_a_real_subset_too_small_for_knn_k(pipeline,
                                                            tmp_path, capsys):
    # 6 generated images of class 0 per alpha meet the test split's 2
    samples = _rewrite_samples(pipeline, tmp_path / "samples.csv", label="0")
    out = tmp_path / "eval"
    assert _evaluate(pipeline, out, samples, "knn_k=2") == 1
    err = capsys.readouterr().err
    assert "split: the class-matched test subset for alpha 0 holds 2 " \
        "images; knn_k=2 needs at least 3" in err
    assert not list(out.glob("*_config.txt"))


def test_evaluate_rejects_a_non_numeric_alpha(pipeline, tmp_path, capsys):
    samples = _rewrite_samples(pipeline, tmp_path / "samples.csv",
                               alpha="high")
    out = tmp_path / "eval"
    assert _evaluate(pipeline, out, samples, "knn_k=2") == 1
    assert "generated: alpha 'high' is not a number" \
        in capsys.readouterr().err
    assert not list(out.glob("*_config.txt"))


def test_compare_models_rejects_sets_too_small_for_knn_k(pipeline, tmp_path,
                                                         capsys):
    vae, ddpm = pipeline / "vae.qldm", pipeline / "ddpm.qldm"
    code = main(["compare-models", "--out", str(tmp_path),
                 "--set", f"data={pipeline / 'dataset' / 'manifest.csv'}",
                 "--set", "variants=base",
                 "--set", f"base_vae={vae}", "--set", f"base_ddpm={ddpm}",
                 "--set", "n_per_class=1", "--set", "steps=2"])
    assert code == 1
    assert "n_per_class: the generated set for variant base holds 3 " \
        "images; knn_k=3 needs at least 4" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_config.txt"))


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "qlatent.cli", "make-dataset",
         "--out", str(tmp_path), "--set", "n_images=6",
         "--set", "image_size=16"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "dataset" / "manifest.csv").is_file()
