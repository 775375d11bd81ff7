import json
from pathlib import Path

import numpy as np
import pytest

from textmil.cli import main
from textmil.ssf import count_trainable

FAST_CONFIG = {
    "encoder": {"dim": 16, "blocks": 3, "mlp_hidden": 8, "attn_hidden": 4, "backbone_seed": 5},
    "train": {"seed": 0, "shots": 2, "depth": 2, "max_epochs": 12, "patience": 4, "lr": 5e-3},
    "generator": {"seed": 1, "dim": 16, "slides_per_class": 8, "noise_std": 0.08,
                  "regions_min": 2, "regions_max": 3, "instances_min": 3, "instances_max": 5,
                  "tumor_region_fraction": 0.75, "tumor_instance_fraction": 0.8,
                  "region_tokens": 2, "slide_tokens": 2,
                  "test_per_class": 3, "val_per_class": 3},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return str(p)


@pytest.fixture()
def dataset_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    return out


def read_json(path):
    return json.loads(Path(path).read_text())


def dir_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*.json"))}


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_dataset(dataset_dir):
    manifest = read_json(dataset_dir / "manifest.json")
    assert len(manifest["slides"]) == 16
    assert (dataset_dir / "prompts.json").exists()
    for s in manifest["slides"]:
        assert (dataset_dir / s["file"]).exists()


def test_generate_repeat_byte_identical(tmp_path, config_path):
    assert main(["generate", "--config", config_path, "--out", str(tmp_path / "d1")]) == 0
    assert main(["generate", "--config", config_path, "--out", str(tmp_path / "d2")]) == 0
    assert dir_bytes(tmp_path / "d1") == dir_bytes(tmp_path / "d2")


def test_generate_invalid_fraction_names_field(tmp_path, capsys):
    bad = dict(FAST_CONFIG, generator=dict(FAST_CONFIG["generator"], tumor_region_fraction=1.7))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = main(["generate", "--config", str(p), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "tumor_region_fraction" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    bad = dict(FAST_CONFIG, trian=FAST_CONFIG["train"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["generate", "--config", str(p), "--out", str(tmp_path / "d")]) == 2


# ---------------------------------------------------------------------------
# train / eval / localize


def test_train_eval_localize_pipeline(tmp_path, config_path, dataset_dir):
    run = tmp_path / "run"
    assert main(["train", "--config", config_path, "--data", str(dataset_dir),
                 "--out", str(run)]) == 0
    ckpt = run / "checkpoint.json"
    assert ckpt.exists()
    log_lines = (run / "training_log.jsonl").read_text().strip().splitlines()
    payload = read_json(ckpt)
    assert len(log_lines) == len(payload["history"])
    assert json.loads(log_lines[0])["epoch"] == 1

    ev = tmp_path / "eval"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(ev)]) == 0
    metrics = read_json(ev / "metrics.json")
    assert 0.0 <= metrics["auc"] <= 1.0
    assert metrics["split"] == "test"
    assert len(metrics["per_slide"]) == 6
    assert "config" in metrics

    loc = tmp_path / "loc"
    assert main(["localize", "--data", str(dataset_dir), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(loc)]) == 0
    report = read_json(loc / "localization.json")
    assert report["dice_mean"] is not None
    attn = sorted((loc / "attention").glob("*.json"))
    assert len(attn) == 6
    rec = read_json(attn[0])
    assert sum(r["weight"] for r in rec["regions"]) == pytest.approx(1.0, abs=1e-9)


def test_train_missing_data_dir(tmp_path, config_path):
    assert main(["train", "--config", config_path, "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 3


def test_eval_without_checkpoint_or_sweep(tmp_path, dataset_dir):
    assert main(["eval", "--data", str(dataset_dir), "--out", str(tmp_path / "o")]) == 2


def test_eval_rejects_non_finite_bag(tmp_path, config_path, dataset_dir, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", config_path, "--data", str(dataset_dir),
                 "--out", str(run)]) == 0
    slide_id = read_json(run / "checkpoint.json")["split"]["test"][0]
    files = {s["id"]: s["file"] for s in read_json(dataset_dir / "manifest.json")["slides"]}
    bag_path = dataset_dir / files[slide_id]
    raw = read_json(bag_path)
    raw["regions"][-1]["instances"][0]["embedding"][0] = float("nan")
    bag_path.write_text(json.dumps(raw))
    ev = tmp_path / "eval"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "checkpoint.json"),
                 "--split", "test", "--out", str(ev)]) == 3
    assert not (ev / "metrics.json").exists()
    err = capsys.readouterr().err
    assert f"slide {slide_id} region {raw['regions'][-1]['id']}" in err


@pytest.fixture()
def checkpoint(tmp_path, config_path, dataset_dir):
    run = tmp_path / "run"
    assert main(["train", "--config", config_path, "--data", str(dataset_dir),
                 "--out", str(run)]) == 0
    return run / "checkpoint.json"


@pytest.mark.parametrize("command,artifact", [("eval", "metrics.json"),
                                              ("localize", "localization.json")])
def test_split_slide_missing_from_dataset(tmp_path, dataset_dir, checkpoint, capsys,
                                          command, artifact):
    raw = read_json(checkpoint)
    raw["split"]["test"][0] = "slide_c0_040"
    checkpoint.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert not (out / artifact).exists()
    assert "slide_c0_040" in capsys.readouterr().err


def test_eval_rejects_checkpoint_without_the_split(tmp_path, dataset_dir, checkpoint, capsys):
    raw = read_json(checkpoint)
    del raw["split"]["val"]
    checkpoint.write_text(json.dumps(raw))
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--split", "val", "--out", str(tmp_path / "out")]) == 3
    assert "no val split" in capsys.readouterr().err


def test_eval_rejects_dataset_of_other_dim(tmp_path, config_path, checkpoint, capsys):
    other = dict(FAST_CONFIG, generator=dict(FAST_CONFIG["generator"], dim=8))
    p = tmp_path / "dim8.json"
    p.write_text(json.dumps(other))
    data8 = tmp_path / "data8"
    assert main(["generate", "--config", str(p), "--out", str(data8)]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--data", str(data8), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    assert "embedding dim 8; the model expects 16" in capsys.readouterr().err


def test_eval_rejects_non_finite_checkpoint(tmp_path, dataset_dir, checkpoint, capsys):
    raw = read_json(checkpoint)
    raw["attention"]["w"][0] = float("nan")
    checkpoint.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    assert "non-finite value in attention.w" in capsys.readouterr().err


def test_eval_sweep(tmp_path, config_path, dataset_dir):
    out = tmp_path / "sweep"
    assert main(["eval", "--config", config_path, "--data", str(dataset_dir), "--sweep",
                 "--folds", "2", "--seeds", "1", "--out", str(out)]) == 0
    payload = read_json(out / "sweep.json")
    assert len(payload["results"]) == 2
    assert 0.0 <= payload["auc_mean"] <= 1.0
    assert payload["auc_std"] >= 0.0


# ---------------------------------------------------------------------------
# merge / params / gradcheck


def test_merge_checkpoint_probabilities_match(tmp_path, config_path, dataset_dir):
    run = tmp_path / "run"
    main(["train", "--config", config_path, "--data", str(dataset_dir), "--out", str(run)])
    merged_dir = tmp_path / "merged"
    assert main(["merge", "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(merged_dir)]) == 0
    merged_ckpt = read_json(merged_dir / "checkpoint_merged.json")
    assert merged_ckpt["merged"] is True
    assert merged_ckpt["ssf"] == []
    assert merged_ckpt["backbone"]["kind"] == "explicit"

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(e1)]) == 0
    assert main(["eval", "--data", str(dataset_dir),
                 "--checkpoint", str(merged_dir / "checkpoint_merged.json"),
                 "--out", str(e2)]) == 0
    m1, m2 = read_json(e1 / "metrics.json"), read_json(e2 / "metrics.json")
    for a, b in zip(m1["per_slide"], m2["per_slide"]):
        assert np.abs(np.array(a["probabilities"]) - np.array(b["probabilities"])).max() <= 1e-10


def test_merge_twice_rejected(tmp_path, config_path, dataset_dir):
    run = tmp_path / "run"
    main(["train", "--config", config_path, "--data", str(dataset_dir), "--out", str(run)])
    merged_dir = tmp_path / "m"
    main(["merge", "--checkpoint", str(run / "checkpoint.json"), "--out", str(merged_dir)])
    assert main(["merge", "--checkpoint", str(merged_dir / "checkpoint_merged.json"),
                 "--out", str(tmp_path / "m2")]) == 3


def test_params_matches_closed_form(tmp_path, config_path, capsys):
    assert main(["params", "--config", config_path, "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "params.json")
    assert payload["trainable"] == count_trainable(16, 2, 4, 16)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["trainable"] == payload["trainable"]


def test_params_depth_override_strictly_increasing(tmp_path, config_path):
    counts = []
    for d in (1, 2, 3):
        out = tmp_path / f"p{d}"
        assert main(["params", "--config", config_path, "--d-s", str(d),
                     "--out", str(out)]) == 0
        counts.append(read_json(out / "params.json")["trainable"])
    assert counts[0] < counts[1] < counts[2]


def test_gradcheck_command(tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--out", str(out)]) == 0
    report = read_json(out / "gradcheck.json")
    assert report["max_rel_error"] <= 1e-4
    assert set(report) >= {"through-score", "detached", "branch_margin", "n_params"}


# ---------------------------------------------------------------------------
# determinism across the whole pipeline


def test_generate_train_eval_byte_identical(tmp_path, config_path):
    outputs = []
    for tag in ("x", "y"):
        d = tmp_path / f"data_{tag}"
        r = tmp_path / f"run_{tag}"
        e = tmp_path / f"eval_{tag}"
        assert main(["generate", "--config", config_path, "--out", str(d)]) == 0
        assert main(["train", "--config", config_path, "--data", str(d), "--out", str(r)]) == 0
        assert main(["eval", "--data", str(d), "--checkpoint", str(r / "checkpoint.json"),
                     "--out", str(e)]) == 0
        outputs.append((e / "metrics.json").read_bytes())
    assert outputs[0] == outputs[1]
