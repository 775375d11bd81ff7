import base64
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textmil import cli
from textmil.cli import main
from textmil.errors import NumericError
from textmil.hierpool import AttentionParams
from textmil.metrics import EvalResult
from textmil.ssf import count_trainable
from textmil.tape import DegenerateVectorError

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


def edit_bag_rows(path, edit):
    """Rewrite a bag file by hand (bypassing save_bag's checks) after
    `edit(region_index, rows)` changed each region's embedding rows in place."""
    raw = read_json(path)
    for m, region in enumerate(raw["regions"]):
        block = region["embeddings"]
        rows = np.frombuffer(base64.b64decode(block["base64"]), dtype=block["dtype"])
        rows = rows.reshape(block["shape"]).copy()
        edit(m, rows)
        block["base64"] = base64.b64encode(rows.astype(block["dtype"]).tobytes()).decode()
    Path(path).write_text(json.dumps(raw))
    return raw


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
    last = len(read_json(bag_path)["regions"]) - 1

    def poison(m, rows):
        if m == last:
            rows[0, 0] = float("nan")

    raw = edit_bag_rows(bag_path, poison)
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


def test_localize_pools_each_slide_once(tmp_path, dataset_dir, checkpoint, monkeypatch):
    from textmil import hierpool
    from textmil.data import load_dataset
    from textmil.hierpool import BagBatch, instance_saliency
    from textmil.model import load_checkpoint

    pooled = []
    real = hierpool.region_encode

    def counted(batch, *args, **kwargs):
        pooled.append(batch.n_instances)
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(hierpool, "region_encode", counted)
    loc = tmp_path / "loc"
    assert main(["localize", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(loc)]) == 0
    monkeypatch.undo()
    model, _, split = load_checkpoint(checkpoint)
    bags = load_dataset(dataset_dir).select(split["test"])
    assert sum(pooled) == sum(r.n_instances for b in bags for r in b.regions)

    for bag in bags:
        rec = read_json(loc / "attention" / f"{bag.slide_id}.json")
        assert set(rec) == {"slide_id", "label", "saliency_mode", "regions"}
        _, out = model.forward(BagBatch.of([bag]))
        weights = np.split(out.region.weight_values(), out.batch.region_offsets[1:-1])
        saliency = np.split(instance_saliency(out), out.batch.region_offsets[1:-1])
        for m, r in enumerate(rec["regions"]):
            assert set(r) == {"id", "coord", "weight", "instances"}
            assert abs(r["weight"] - out.region_weight_values()[m]) <= 1e-12
            for j, inst in enumerate(r["instances"]):
                assert set(inst) == {"coord", "weight", "saliency"}
                assert abs(inst["weight"] - weights[m][j]) <= 1e-12
                assert abs(inst["saliency"] - saliency[m][j]) <= 1e-12


def test_merge_with_non_finite_parameters_exits_numeric(tmp_path, checkpoint, monkeypatch,
                                                        capsys):
    real = cli.merge_model

    def nan_merge(model):
        merged = real(model)
        merged.attention.u1[0, 0] = np.nan
        return merged

    monkeypatch.setattr(cli, "merge_model", nan_merge)
    out = tmp_path / "merged"
    assert main(["merge", "--checkpoint", str(checkpoint), "--out", str(out)]) == 4
    assert not (out / "checkpoint_merged.json").exists()
    assert "checkpoint_merged.json" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """(dataset dir, parsed checkpoint) of one small training run, shared
    by the checkpoint-validation tests, which write edited copies."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.json"
    config.write_text(json.dumps(FAST_CONFIG))
    data, run = root / "data", root / "run"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(run)]) == 0
    return data, read_json(run / "checkpoint.json")


@pytest.fixture(scope="module")
def merged_raw(trained_run, tmp_path_factory):
    """The parsed merged checkpoint of `trained_run`'s checkpoint."""
    root = tmp_path_factory.mktemp("merged")
    (root / "checkpoint.json").write_text(json.dumps(trained_run[1]))
    assert main(["merge", "--checkpoint", str(root / "checkpoint.json"),
                 "--out", str(root / "merged")]) == 0
    return read_json(root / "merged" / "checkpoint_merged.json")


def eval_edited_checkpoint(data, raw, root):
    """(exit code, stderr, whether metrics.json was written) of `eval` on `raw`."""
    path, out = Path(root) / "checkpoint.json", Path(root) / "out"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["eval", "--data", str(data), "--checkpoint", str(path), "--out", str(out)])
    return code, err.getvalue(), (out / "metrics.json").exists()


def _at(raw, path):
    """(container, key) of the value at `path` in a parsed checkpoint."""
    *parents, last = path
    for key in parents:
        raw = raw[key]
    return raw, last


def _set(path, value):
    """An edit that replaces the value at `path` by `value(old value)` in
    place and returns the edited object."""
    def edit(raw):
        node, last = _at(raw, path)
        node[last] = value(node[last])
        return raw
    return edit


# FAST_CONFIG: 3 blocks (records 0-1 are block 1's frozen identity
# records, 2-5 the adapters of blocks 2 and 3), attn_hidden 4, dim 16
CHECKPOINT_DEFECTS = {
    "block-0": (_set(["ssf", 5, "block"], lambda v: 0), "ssf[5].block"),
    "block-99": (_set(["ssf", 5, "block"], lambda v: 99), "ssf[5].block"),
    "unknown-kind": (_set(["ssf", 5, "kind"], lambda v: "post_attention"), "ssf[5].kind"),
    "duplicate-site": (lambda raw: raw["ssf"].append(dict(raw["ssf"][3])), "ssf[6]"),
    "gamma-length-5": (_set(["ssf", 5, "gamma"], lambda v: v[:5]), "ssf[5].gamma"),
    "gamma-2d": (_set(["ssf", 5, "gamma"], lambda v: [v]), "ssf[5].gamma"),
    "frozen-not-identity": (_set(["ssf", 0, "beta"], lambda v: [0.5] + v[1:]), "ssf[0]"),
    "attention-w-length-3": (_set(["attention", "w"], lambda v: v[:3]), "attention.w"),
    "one-class": (_set(["prompts", "classes"], lambda v: v[:1]),
                  "prompts.classes must hold at least 2 classes"),
    "class-id-1-first": (_set(["prompts", "classes", 0, "id"], lambda v: 1),
                         "prompts.classes[0].id"),
}


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
def test_eval_rejects_malformed_adapter_or_attention_record(tmp_path, trained_run, defect):
    data, raw = trained_run
    edit, field = CHECKPOINT_DEFECTS[defect]
    raw = json.loads(json.dumps(raw))
    edit(raw)
    code, err, wrote = eval_edited_checkpoint(data, raw, tmp_path)
    assert code == 3
    assert not wrote
    assert field in err


# FAST_CONFIG's merged backbone: 3 blocks, dim 16, mlp_hidden 8
MERGED_DEFECTS = {
    "w1-3-rows": (_set(["backbone", "blocks", 0, "w1"], lambda v: v[:3]), "backbone.blocks[0].w1"),
    "w2-transposed": (_set(["backbone", "blocks", 1, "w2"], lambda v: np.transpose(v).tolist()),
                      "backbone.blocks[1].w2"),
    "b1-length-16": (_set(["backbone", "blocks", 2, "b1"], lambda v: v + v),
                     "backbone.blocks[2].b1"),
    "b2-length-8": (_set(["backbone", "blocks", 0, "b2"], lambda v: v[:8]),
                    "backbone.blocks[0].b2"),
    "ln-gain-2d": (_set(["backbone", "blocks", 1, "ln_gain"], lambda v: [v]),
                   "backbone.blocks[1].ln_gain"),
    "ln-bias-length-15": (_set(["backbone", "blocks", 2, "ln_bias"], lambda v: v[:-1]),
                          "backbone.blocks[2].ln_bias"),
    "unknown-weight": (_set(["backbone", "blocks", 0], lambda v: dict(v, w3=v["w1"])),
                       "backbone.blocks[0]"),
    "proj-10-rows": (_set(["backbone", "proj"], lambda v: v[:10]), "backbone.proj"),
    "two-blocks": (_set(["backbone", "blocks"], lambda v: v[:2]), "backbone.blocks"),
    "four-blocks": (_set(["backbone", "blocks"], lambda v: v + v[:1]), "backbone.blocks"),
    "no-blocks": (_set(["backbone", "blocks"], lambda v: []), "backbone.blocks"),
    "dim-8": (_set(["backbone", "dim"], lambda v: 8), "backbone.dim"),
    "unknown-kind": (_set(["backbone", "kind"], lambda v: "folded"), "backbone.kind"),
}


@pytest.mark.parametrize("defect", sorted(MERGED_DEFECTS))
def test_eval_rejects_malformed_merged_backbone(tmp_path, trained_run, merged_raw, defect):
    edit, field = MERGED_DEFECTS[defect]
    raw = json.loads(json.dumps(merged_raw))
    edit(raw)
    code, err, wrote = eval_edited_checkpoint(trained_run[0], raw, tmp_path)
    assert code == 3
    assert not wrote
    assert field in err


def test_eval_rejects_label_outside_the_model_classes(tmp_path, trained_run):
    data, raw = trained_run
    data = Path(shutil.copytree(data, tmp_path / "data"))
    slide_id = raw["split"]["test"][0]
    manifest = read_json(data / "manifest.json")
    entry = next(s for s in manifest["slides"] if s["id"] == slide_id)
    bag = read_json(data / entry["file"])
    entry["label"] = bag["label"] = 2
    (data / "manifest.json").write_text(json.dumps(manifest))
    (data / entry["file"]).write_text(json.dumps(bag))
    code, err, wrote = eval_edited_checkpoint(data, raw, tmp_path)
    assert code == 3
    assert not wrote
    assert f"slide {slide_id} has label 2" in err


# edits of the first label-0 slide with at least 3 regions, or of the
# prompt file; `int()` turned each bad label into that slide's label 0,
# and classes paired with labels by position whatever their ids
INPUT_DEFECTS = {
    "label-half": ("bag", _set(["label"], lambda v: 0.5), "label must be a JSON integer"),
    "label-string": ("bag", _set(["label"], lambda v: "0"), "label must be a JSON integer"),
    "label-false": ("bag", _set(["label"], lambda v: False), "label must be a JSON integer"),
    "region-id-repeated": ("bag", _set(["regions"], lambda v: v[:2] + [dict(v[2], id=v[0]["id"])]
                                       + v[3:]), "regions[2].id"),
    "bag-is-list": ("bag", lambda raw: [raw], "the bag must be a JSON object"),
    "regions-int": ("bag", _set(["regions"], lambda v: 5), "regions must be a JSON array"),
    "instances-int": ("bag", _set(["regions", 0, "instances"], lambda v: 3),
                      "regions[0].instances must be a JSON array"),
    "class-ids-swapped": ("prompts", _set(["classes"], lambda v: [
        dict(c, id=1 - c["id"]) for c in v]), "prompts.classes[0].id"),
    "class-id-7": ("prompts", _set(["classes", 1, "id"], lambda v: 7), "prompts.classes[1].id"),
    "class-id-true": ("prompts", _set(["classes", 1, "id"], lambda v: True),
                      "prompts.classes[1].id"),
}


@pytest.mark.parametrize("defect", sorted(INPUT_DEFECTS))
def test_train_rejects_malformed_bag_or_prompt_file(tmp_path, trained_run, defect):
    kind, edit, field = INPUT_DEFECTS[defect]
    data = Path(shutil.copytree(trained_run[0], tmp_path / "data"))
    manifest = read_json(data / "manifest.json")
    if kind == "bag":
        name = next(s["file"] for s in manifest["slides"]
                    if s["label"] == 0 and len(read_json(data / s["file"])["regions"]) >= 3)
    else:
        name = manifest["prompts_file"]
    (data / name).write_text(json.dumps(edit(read_json(data / name))))
    (tmp_path / "config.json").write_text(json.dumps(FAST_CONFIG))
    run, err = tmp_path / "run", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(tmp_path / "config.json"), "--data", str(data),
                     "--out", str(run)])
    assert code == 3
    assert not run.exists() or not any(run.iterdir())
    assert name in err.getvalue() and field in err.getvalue()


ARRAY_FIELDS = ([("ssf", i, v) for i in range(6) for v in ("gamma", "beta")]
                + [("attention", f) for f in AttentionParams.FIELDS])
SCALAR_FIELDS = ([("ssf", i, k) for i in range(6) for k in ("block", "kind", "trainable")]
                 + [("backbone", "seed")])
TOP_LEVEL = [(k,) for k in ("config", "backbone", "ssf", "attention", "prompts", "split")]
MERGED_ARRAY_FIELDS = ([("backbone", "blocks", i, k) for i in range(3)
                        for k in ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2")]
                       + [("backbone", "proj")] + [("attention", f) for f in AttentionParams.FIELDS])
MERGED_SCALAR_FIELDS = [("backbone", k) for k in ("kind", "dim", "blocks")]
SWAPS = [None, "x", {}, [], True, 2.5]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_eval_rejects_fuzzed_checkpoint(trained_run, merged_raw, data):
    """Random key deletions, type swaps, truncated or reshaped arrays and
    non-finite values in the trained or the merged checkpoint: `eval`
    exits 2, 3 or 4, writing nothing."""
    dataset, raw = trained_run
    merged = data.draw(st.booleans(), label="merged")
    raw = json.loads(json.dumps(merged_raw if merged else raw))
    arrays = MERGED_ARRAY_FIELDS if merged else ARRAY_FIELDS
    scalars = MERGED_SCALAR_FIELDS if merged else SCALAR_FIELDS
    path = data.draw(st.sampled_from(TOP_LEVEL + scalars + arrays), label="path")
    node, last = _at(raw, path)
    reshaping = ["truncate", "reshape", "non-finite"] if path in arrays else []
    op = data.draw(st.sampled_from(["delete", "swap"] + reshaping), label="op")
    value = np.asarray(node[last]) if path in arrays else None
    if op == "delete":
        del node[last]
    elif op == "swap":
        node[last] = data.draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(node[last])]), label="value")
    elif op == "truncate":
        if value.ndim == 2 and data.draw(st.booleans(), label="ragged"):
            node[last] = [row[:-1] if r == 0 else row for r, row in enumerate(node[last])]
        else:
            node[last] = node[last][:-1]
    elif op == "reshape":
        node[last] = [node[last]] if value.ndim == 1 else value.ravel().tolist()
    else:
        flat = value.ravel()
        flat[data.draw(st.integers(0, flat.size - 1), label="index")] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]), label="non-finite")
        node[last] = flat.reshape(value.shape).tolist()
    with tempfile.TemporaryDirectory() as root:
        code, err, wrote = eval_edited_checkpoint(dataset, raw, root)
    assert code in (2, 3, 4), err
    assert "Traceback" not in err
    assert not wrote


def test_eval_rejects_all_zero_slide(tmp_path, dataset_dir, checkpoint, capsys):
    slide_id = read_json(checkpoint)["split"]["test"][0]
    files = {s["id"]: s["file"] for s in read_json(dataset_dir / "manifest.json")["slides"]}
    bag_path = dataset_dir / files[slide_id]
    edit_bag_rows(bag_path, lambda m, rows: rows.fill(0.0))
    out = tmp_path / "out"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    assert f"slide {slide_id}: every instance embedding is zero" in capsys.readouterr().err


def test_degenerate_vector_exits_numeric(tmp_path, dataset_dir, checkpoint, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateVectorError("cannot normalize vector with norm 0")

    monkeypatch.setattr(cli, "evaluate", degenerate)
    out = tmp_path / "out"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 4
    assert not (out / "metrics.json").exists()


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "out" / "metrics.json"
    with pytest.raises(NumericError, match="metrics.json"):
        cli._write_json(path, {"auc": float("nan")})
    assert not path.exists()


def test_eval_with_nan_metric_exits_numeric(tmp_path, dataset_dir, checkpoint, monkeypatch, capsys):
    monkeypatch.setattr(cli, "evaluate", lambda model, bags: EvalResult(float("nan"), []))
    out = tmp_path / "out"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 4
    assert not (out / "metrics.json").exists()
    assert "metrics.json" in capsys.readouterr().err


def test_train_with_nan_history_exits_numeric(tmp_path, config_path, dataset_dir, monkeypatch):
    real = cli.run_kshot

    def nan_history(cfg, dataset):
        model, result, plan = real(cfg, dataset)
        result.history[-1]["val_auc"] = float("nan")
        return model, result, plan

    monkeypatch.setattr(cli, "run_kshot", nan_history)
    run = tmp_path / "run"
    assert main(["train", "--config", config_path, "--data", str(dataset_dir),
                 "--out", str(run)]) == 4
    assert not (run / "training_log.jsonl").exists()
    assert not (run / "checkpoint.json").exists()


@pytest.mark.parametrize("flag", ["--folds", "--seeds"])
def test_eval_sweep_rejects_empty_grid(tmp_path, config_path, dataset_dir, monkeypatch, capsys,
                                       flag):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(cli, "run_kshot", no_fit)
    out = tmp_path / "sweep"
    assert main(["eval", "--config", config_path, "--data", str(dataset_dir), "--sweep",
                 flag, "0", "--out", str(out)]) == 2
    assert not (out / "sweep.json").exists()
    assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err


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
