import base64
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from textmil import cli
from textmil.cli import main
from textmil.config import RunConfig
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


def decode(block):
    """The array of a base64 block, as a writable copy."""
    data = base64.b64decode(block["base64"])
    return np.frombuffer(data, dtype=block["dtype"]).reshape(block["shape"]).copy()


def encode(array):
    """The base64 block of `array`, written by hand: it may hold any value."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"dtype": "<f8", "shape": list(array.shape),
            "base64": base64.b64encode(array.tobytes()).decode()}


def edit_bag_rows(path, edit):
    """Rewrite a bag file by hand (bypassing save_bag's checks) after
    `edit(region_index, rows)` changed each region's embedding rows in place."""
    raw = read_json(path)
    for m, region in enumerate(raw["regions"]):
        rows = decode(region["embeddings"])
        edit(m, rows)
        region["embeddings"] = encode(rows)
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


@pytest.mark.parametrize("bad_id", ["../../../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
@pytest.mark.parametrize("in_manifest", [True, False])
def test_slide_id_that_is_not_a_file_name_exits_3(tmp_path, dataset_dir, checkpoint, capsys,
                                                 bad_id, in_manifest):
    """A slide id names the slide's attention file, so localize must not
    take one that leaves its directory. The manifest's id and the bag
    file's `slide_id` are each checked where they are read."""
    manifest = read_json(dataset_dir / "manifest.json")
    raw = read_json(checkpoint)
    record = next(s for s in manifest["slides"] if s["id"] == raw["split"]["test"][0])
    bag_path = dataset_dir / record["file"]
    bag = read_json(bag_path)
    bag["slide_id"] = bad_id
    bag_path.write_text(json.dumps(bag))
    if in_manifest:
        record["id"] = raw["split"]["test"][0] = bad_id
        (dataset_dir / "manifest.json").write_text(json.dumps(manifest))
        checkpoint.write_text(json.dumps(raw))
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "x" / "y" / "loc"
    assert main(["localize", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert sorted(tmp_path.rglob("*")) == before
    err = capsys.readouterr().err
    assert "not a single path component" in err
    assert ("manifest" if in_manifest else str(bag_path)) in err
    assert ("slides[" if in_manifest else "slide_id") in err


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
        weights = np.split(out.region.weights, out.batch.region_offsets[1:-1])
        saliency = np.split(instance_saliency(out), out.batch.region_offsets[1:-1])
        for m, r in enumerate(rec["regions"]):
            assert set(r) == {"id", "coord", "weight", "instances"}
            assert abs(r["weight"] - out.slide.weights[m]) <= 1e-12
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


@pytest.mark.parametrize("command", ["eval", "localize"])
def test_split_of_one_class_exits_3(tmp_path, trained_run, command):
    """An AUC needs both classes: a split that holds only one exits 3 and
    writes nothing."""
    data, raw = trained_run
    raw = json.loads(json.dumps(raw))
    labels = {s["id"]: s["label"] for s in read_json(data / "manifest.json")["slides"]}
    raw["split"]["test"] = [sid for sid in raw["split"]["test"] if labels[sid] == 0]
    path, out, err = tmp_path / "checkpoint.json", tmp_path / "out", io.StringIO()
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stderr(err):
        code = main([command, "--data", str(data), "--checkpoint", str(path), "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "AUC needs both a positive and a negative example" in err.getvalue()


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
    w = decode(raw["attention"]["w"])
    w[0] = float("nan")
    raw["attention"]["w"] = encode(w)
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


def _set_array(path, value):
    """An edit that replaces the block at `path` by the block of
    `value(old array)`."""
    return _set(path, lambda block: encode(value(decode(block))))


def _nan_at(index):
    """An array edit that puts a NaN at `index`."""
    def edit(a):
        a[index] = np.nan
        return a
    return edit


def _drop(path):
    """An edit that deletes the value at `path` and returns the edited object."""
    def edit(raw):
        node, last = _at(raw, path)
        del node[last]
        return raw
    return edit


def _narrow_tokens(prompts):
    """Keep the first 8 columns of every class's tokens of a parsed prompt set."""
    for c in prompts["classes"]:
        for name in ("region_tokens", "slide_tokens"):
            c[name] = encode(decode(c[name])[:, :8])


# FAST_CONFIG: 3 blocks (records 0-1 are the adapters of block 2, 2-3
# those of block 3), attn_hidden 4, dim 16
CHECKPOINT_DEFECTS = {
    "block-0": (_set(["ssf", 3, "block"], lambda v: 0), "ssf[3].block"),
    "block-99": (_set(["ssf", 3, "block"], lambda v: 99), "ssf[3].block"),
    "unknown-kind": (_set(["ssf", 3, "kind"], lambda v: "post_attention"), "ssf[3].kind"),
    "duplicate-site": (lambda raw: raw["ssf"].append(dict(raw["ssf"][1])), "ssf[4]"),
    "gamma-length-5": (_set_array(["ssf", 3, "gamma"], lambda a: a[:5]), "ssf[3].gamma"),
    "gamma-2d": (_set_array(["ssf", 3, "gamma"], lambda a: a[None]), "ssf[3].gamma"),
    "gamma-list-length-5": (_set(["ssf", 3, "gamma"], lambda v: decode(v)[:5].tolist()),
                            "ssf[3].gamma"),
    "gamma-dtype-f4": (_set(["ssf", 3, "gamma", "dtype"], lambda v: "<f4"), "ssf[3].gamma.dtype"),
    "gamma-shape-8": (_set(["ssf", 3, "gamma", "shape"], lambda v: [8]), "ssf[3].gamma.shape"),
    "gamma-shape-float": (_set(["ssf", 3, "gamma", "shape"], lambda v: [16.0]),
                          "ssf[3].gamma.shape"),
    "beta-base64-cut": (_set(["ssf", 2, "beta", "base64"], lambda v: v[:-4]), "ssf[2].beta"),
    "beta-base64-garbled": (_set(["ssf", 2, "beta", "base64"], lambda v: "!" + v[1:]),
                            "ssf[2].beta.base64"),
    "beta-base64-missing": (_drop(["ssf", 2, "beta", "base64"]), "ssf[2].beta.base64"),
    "beta-nan": (_set_array(["ssf", 2, "beta"], _nan_at(3)), "non-finite value in ssf[2].beta"),
    "frozen-not-identity": (_set(["ssf", 0], lambda v: dict(v, trainable=False)), "ssf[0]"),
    # format 1 lists a frozen identity record; one that a trainable record
    # repeats is still a repeat, though loading drops the frozen one
    "frozen-then-trainable": (lambda raw: raw.update(format=1, ssf=[
        {"block": 3, "kind": "post_mlp", "gamma": [1.0] * 16, "beta": [0.0] * 16,
         "trainable": False}, *raw["ssf"]]), "ssf[4] repeats the post_mlp site of block 3"),
    "attention-w-length-3": (_set_array(["attention", "w"], lambda a: a[:3]), "attention.w"),
    "attention-u1-nan": (_set_array(["attention", "u1"], _nan_at((1, 2))),
                         "non-finite value in attention.u1"),
    "region-tokens-ragged": (_set(["prompts", "classes", 0, "region_tokens"],
                                  lambda v: [decode(v)[0].tolist(), decode(v)[1, :-1].tolist()]),
                             "prompts.classes[0].region_tokens"),
    "slide-tokens-inf": (_set_array(["prompts", "classes", 1, "slide_tokens"],
                                    lambda a: a * np.inf),
                         "non-finite value in prompts.classes[1].slide_tokens"),
    "one-class": (_set(["prompts", "classes"], lambda v: v[:1]),
                  "prompts.classes must hold at least 2 classes"),
    "tokens-8-wide": (lambda raw: _narrow_tokens(raw["prompts"]),
                      "the tokens of prompts.classes[0] are 8 wide; encoder.dim is 16"),
    "class-id-1-first": (_set(["prompts", "classes", 0, "id"], lambda v: 1),
                         "prompts.classes[0].id"),
    "split-not-a-list": (_set(["split", "test"], lambda v: 5), "split.test"),
    "split-id-not-a-string": (_set(["split", "test"], lambda v: [[1]] + v[1:]), "split.test[0]"),
    "config-seed-half": (_set(["config", "train", "seed"], lambda v: 1.5), "config.train.seed"),
    "format-3": (_set(["format"], lambda v: 3), "format must be 1 or 2"),
    "format-missing": (_drop(["format"]), "format is missing"),
    "history-int": (_set(["history"], lambda v: 5), "history must be a JSON array"),
    "history-epoch-string": (_set(["history", 0, "epoch"], lambda v: "1"), "history[0].epoch"),
    "history-loss-missing": (_drop(["history", 1, "train_loss"]), "history[1].train_loss"),
    "history-auc-nan": (_set(["history", 0, "val_auc"], lambda v: float("nan")),
                        "history[0].val_auc"),
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
    "w1-3-rows": (_set_array(["backbone", "blocks", 0, "w1"], lambda a: a[:3]),
                  "backbone.blocks[0].w1"),
    "w2-transposed": (_set_array(["backbone", "blocks", 1, "w2"], lambda a: a.T),
                      "backbone.blocks[1].w2"),
    "b1-length-16": (_set_array(["backbone", "blocks", 2, "b1"], lambda a: np.r_[a, a]),
                     "backbone.blocks[2].b1"),
    "b2-length-8": (_set_array(["backbone", "blocks", 0, "b2"], lambda a: a[:8]),
                    "backbone.blocks[0].b2"),
    "ln-gain-2d": (_set_array(["backbone", "blocks", 1, "ln_gain"], lambda a: a[None]),
                   "backbone.blocks[1].ln_gain"),
    "ln-bias-length-15": (_set_array(["backbone", "blocks", 2, "ln_bias"], lambda a: a[:-1]),
                          "backbone.blocks[2].ln_bias"),
    "w1-nan": (_set_array(["backbone", "blocks", 0, "w1"], _nan_at((2, 5))),
               "non-finite value in backbone.blocks[0].w1"),
    "w1-list-ragged": (_set(["backbone", "blocks", 0, "w1"],
                            lambda v: [row[:-1] if r == 0 else row
                                       for r, row in enumerate(decode(v).tolist())]),
                       "backbone.blocks[0].w1"),
    "proj-dtype-big-endian": (_set(["backbone", "proj", "dtype"], lambda v: ">f8"),
                              "backbone.proj.dtype"),
    "proj-base64-cut": (_set(["backbone", "proj", "base64"], lambda v: v[:-1]),
                        "backbone.proj.base64"),
    "unknown-weight": (_set(["backbone", "blocks", 0], lambda v: dict(v, w3=v["w1"])),
                       "backbone.blocks[0]"),
    "proj-10-rows": (_set_array(["backbone", "proj"], lambda a: a[:10]), "backbone.proj"),
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


@pytest.mark.parametrize("history,field", [(5, "history must be a JSON array"),
                                           ("epoch", "history[0].epoch")])
def test_merge_rejects_malformed_history(tmp_path, trained_run, history, field, capsys):
    raw = json.loads(json.dumps(trained_run[1]))
    if history == "epoch":
        raw["history"][0]["epoch"] = "1"
    else:
        raw["history"] = history
    (tmp_path / "checkpoint.json").write_text(json.dumps(raw))
    out = tmp_path / "merged"
    assert main(["merge", "--checkpoint", str(tmp_path / "checkpoint.json"),
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("inside", [False, True])
def test_eval_reads_only_the_bags_of_its_split(tmp_path, trained_run, inside):
    """A bag file that `eval` does not use is not read: corrupting one
    outside the checkpoint's test split leaves metrics.json unchanged,
    and the same corruption inside the split exits 3."""
    data, raw = trained_run
    (tmp_path / "checkpoint.json").write_text(json.dumps(raw))
    argv = ["eval", "--checkpoint", str(tmp_path / "checkpoint.json")]
    assert main(argv + ["--data", str(data), "--out", str(tmp_path / "clean")]) == 0
    data = Path(shutil.copytree(data, tmp_path / "data"))
    test = set(raw["split"]["test"])
    slides = read_json(data / "manifest.json")["slides"]
    name = next(s["file"] for s in slides if (s["id"] in test) == inside)
    (data / name).write_text("{not json")
    out = tmp_path / "out"
    code = main(argv + ["--data", str(data), "--out", str(out)])
    if inside:
        assert code == 3 and not (out / "metrics.json").exists()
    else:
        assert code == 0
        assert (out / "metrics.json").read_bytes() == \
            (tmp_path / "clean" / "metrics.json").read_bytes()


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


def _one_mask(raw):
    """Drop every instance mask of a bag but that of regions[1].instances[0]."""
    for i, region in enumerate(raw["regions"]):
        for j, inst in enumerate(region["instances"]):
            if (i, j) != (1, 0):
                del inst["mask"]
    return raw


# edits of the first label-0 training or validation slide with at least
# 3 regions (`train` reads no other bag file), of the prompt file or of
# the manifest; each must exit 3 naming its file and
# field, as no loader casts a value (a label or mask of 0.5 is not 0, a
# coord [0, 1.7] not [0, 1], an id [1] not "[1]") and classes pair with
# labels by position
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
    "mask-half": ("bag", _set(["regions", 0, "instances", 0, "mask"], lambda v: 0.5),
                  "regions[0].instances[0].mask"),
    "mask-missing": ("bag", _drop(["regions", 0, "instances", 1, "mask"]),
                     "regions[0].instances[1].mask"),
    "mask-on-one-instance": ("bag", _one_mask, "regions[1].instances[0].mask"),
    "coord-three": ("bag", _set(["regions", 0, "instances", 0, "coord"], lambda v: [0, 1, 2]),
                    "regions[0].instances[0].coord"),
    "coord-fraction": ("bag", _set(["regions", 0, "instances", 1, "coord"], lambda v: [0, 1.7]),
                       "regions[0].instances[1].coord"),
    "region-id-list": ("bag", _set(["regions", 0, "id"], lambda v: [1]), "regions[0].id"),
    "embeddings-shape-string": ("bag", _set(["regions", 0, "embeddings", "shape"], lambda v: "x"),
                                "regions[0].embeddings.shape"),
    "embeddings-base64-int": ("bag", _set(["regions", 0, "embeddings", "base64"], lambda v: 5),
                              "regions[0].embeddings.base64"),
    "slide-file-int": ("manifest", _set(["slides", 0, "file"], lambda v: 3), "slides[0].file"),
    "prompts-file-null": ("manifest", _set(["prompts_file"], lambda v: None), "prompts_file"),
    "tumor-class-half": ("prompts", _set(["tumor_class"], lambda v: 1.5), "prompts.tumor_class"),
    "tumor-class-true": ("prompts", _set(["tumor_class"], lambda v: True), "prompts.tumor_class"),
    "class-name-list": ("prompts", _set(["classes", 0, "name"], lambda v: [1]),
                        "prompts.classes[0].name"),
    "region-tokens-ragged": ("prompts", _set(["classes", 0, "region_tokens"],
                                             lambda v: [decode(v)[0].tolist(),
                                                        decode(v)[1, :-1].tolist()]),
                             "prompts.classes[0].region_tokens"),
    "slide-tokens-dtype": ("prompts", _set(["classes", 1, "slide_tokens", "dtype"],
                                           lambda v: "<f4"),
                           "prompts.classes[1].slide_tokens.dtype"),
    "region-tokens-empty": ("prompts", _set_array(["classes", 0, "region_tokens"],
                                                  lambda a: a[:0]),
                            "prompts.classes[0].region_tokens must be a nonempty token matrix"),
    "slide-tokens-narrower": ("prompts", _set_array(["classes", 1, "slide_tokens"],
                                                    lambda a: a[:, :8]),
                              "prompts.classes[1].slide_tokens must be a nonempty token "
                              "matrix as wide as region_tokens"),
    "tumor-class-5": ("prompts", _set(["tumor_class"], lambda v: 5), "prompts.tumor_class"),
    "tumor-class-of-three": ("prompts", lambda raw: dict(
        raw, tumor_class=1, classes=[*raw["classes"], dict(raw["classes"][1], id=2)]),
        "prompts.tumor_class"),
}


@pytest.mark.parametrize("defect", sorted(INPUT_DEFECTS))
def test_train_rejects_malformed_bag_or_prompt_file(tmp_path, trained_run, defect):
    kind, edit, field = INPUT_DEFECTS[defect]
    data = Path(shutil.copytree(trained_run[0], tmp_path / "data"))
    manifest = read_json(data / "manifest.json")
    if kind == "bag":
        used = set(trained_run[1]["split"]["train"] + trained_run[1]["split"]["val"])
        name = next(s["file"] for s in manifest["slides"] if s["id"] in used and s["label"] == 0
                    and len(read_json(data / s["file"])["regions"]) >= 3)
    else:
        name = manifest["prompts_file"] if kind == "prompts" else "manifest.json"
    (data / name).write_text(json.dumps(edit(read_json(data / name))))
    (tmp_path / "config.json").write_text(json.dumps(FAST_CONFIG))
    run, err = tmp_path / "run", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(tmp_path / "config.json"), "--data", str(data),
                     "--out", str(run)])
    assert code == 3
    assert not run.exists() or not any(run.iterdir())
    assert name in err.getvalue() and field in err.getvalue()


def test_train_rejects_prompts_of_other_width(tmp_path, trained_run):
    data = Path(shutil.copytree(trained_run[0], tmp_path / "data"))
    prompts = read_json(data / "prompts.json")
    _narrow_tokens(prompts)
    (data / "prompts.json").write_text(json.dumps(prompts))
    (tmp_path / "config.json").write_text(json.dumps(FAST_CONFIG))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(tmp_path / "config.json"), "--data", str(data),
                     "--out", str(tmp_path / "run")])
    assert code == 3
    assert not (tmp_path / "run").exists()
    assert "the tokens of prompts.classes[0] are 8 wide; encoder.dim is 16" in err.getvalue()


# (command, file, path, value): a bad config field under `train`,
# `generate` or `params` (or a bad `--set`) exits 2, and a bad field of
# the manifest's `generator` section exits 3; each names its field
FIELD_DEFECTS = {
    "train-seed-half": ("train", "config", ["train", "seed"], 1.5),
    "encoder-dim-float": ("train", "config", ["encoder", "dim"], 8.0),
    "generator-seed-half": ("generate", "config", ["generator", "seed"], 0.5),
    "slides-per-class-half": ("generate", "config", ["generator", "slides_per_class"], 2.5),
    "depth-true": ("train", "config", ["train", "depth"], True),
    "blocks-float": ("params", "config", ["encoder", "blocks"], 12.0),
    "lr-nan": ("train", "config", ["train", "lr"], float("nan")),
    "temperature-inf": ("train", "config", ["train", "temperature"], float("inf")),
    "shots-string": ("train", "config", ["train", "shots"], "4"),
    "seed-negative": ("train", "config", ["train", "seed"], -1),
    "backbone-seed-negative": ("params", "config", ["encoder", "backbone_seed"], -3),
    "generator-seed-negative": ("generate", "config", ["generator", "seed"], -1),
    "override-lambda-nan": ("train --set refinement.factor=nan", "config",
                            ["refinement", "factor"], None),
    "set-unknown-key": ("train --set train.bogus=1", "config", ["train", "bogus"], None),
    "set-seed-half": ("train --set train.seed=1.5", "config", ["train", "seed"], None),
    "set-no-section": ("train --set depth=2", "config", ["depth"], None),
    # too deep for the JSON parser: read as a plain string
    "set-deep-nesting": ("train --set train.seed=" + "[" * 100_000, "config", ["train", "seed"],
                         None),
    "manifest-seed-half": ("train", "manifest", ["generator", "seed"], 0.5),
    "manifest-unknown-key": ("train", "manifest", ["generator", "bogus"], 1),
    "manifest-normal-class-string": ("train", "manifest", ["generator", "normal_class"], "0"),
    "dim-one": ("generate", "config", ["generator", "dim"], 1),
    "slides-per-class-zero": ("generate", "config", ["generator", "slides_per_class"], 0),
    "region-tokens-zero": ("generate", "config", ["generator", "region_tokens"], 0),
    "slide-tokens-zero": ("generate", "config", ["generator", "slide_tokens"], 0),
    "test-per-class-negative": ("generate", "config", ["generator", "test_per_class"], -1),
    "val-per-class-negative": ("generate", "config", ["generator", "val_per_class"], -1),
    # FAST_CONFIG holds out 3 test and 3 validation slides per class
    "slides-per-class-all-held-out": ("generate", "config", ["generator", "slides_per_class"], 6),
    "manifest-slides-per-class-zero": ("train", "manifest", ["generator", "slides_per_class"], 0),
    "manifest-region-tokens-zero": ("train", "manifest", ["generator", "region_tokens"], 0),
    "manifest-dim-one": ("train", "manifest", ["generator", "dim"], 1),
}


@pytest.mark.parametrize("case", sorted(FIELD_DEFECTS))
def test_config_and_generator_fields_are_read_as_declared(tmp_path, trained_run, case):
    """A value of None stands for no edit: the field is bad on the command line."""
    command, kind, path, value = FIELD_DEFECTS[case]
    data = Path(shutil.copytree(trained_run[0], tmp_path / "data"))
    config, manifest = json.loads(json.dumps(FAST_CONFIG)), read_json(data / "manifest.json")
    if value is not None:
        _at(config if kind == "config" else manifest, path)[0][path[-1]] = value
    (tmp_path / "config.json").write_text(json.dumps(config))
    (data / "manifest.json").write_text(json.dumps(manifest))
    command, *flags = command.split()
    argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
            *flags] + (["--data", str(data)] if command == "train" else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == (2 if kind == "config" else 3)
    assert not (tmp_path / "out").exists()
    assert ".".join(path) in err.getvalue()
    assert value is None or f"{kind}.json" in err.getvalue()


ARRAY_FIELDS = ([("ssf", i, v) for i in range(4) for v in ("gamma", "beta")]
                + [("attention", f) for f in AttentionParams.FIELDS]
                + [("prompts", "classes", c, t) for c in range(2)
                   for t in ("region_tokens", "slide_tokens")])
SCALAR_FIELDS = ([("ssf", i, k) for i in range(4) for k in ("block", "kind")]
                 + [("backbone", "seed")]
                 + [("history", 0, k) for k in ("epoch", "train_loss", "val_auc")])
TOP_LEVEL = [(k,) for k in ("format", "config", "backbone", "ssf", "attention", "prompts",
                            "split")]
MERGED_ARRAY_FIELDS = ([("backbone", "blocks", i, k) for i in range(3)
                        for k in ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2")]
                       + [("backbone", "proj")] + [("attention", f) for f in AttentionParams.FIELDS])
MERGED_SCALAR_FIELDS = [("backbone", k) for k in ("kind", "dim", "blocks")]
SWAPS = [None, "x", {}, [], True, 2.5]
# edits of an array's block: a consistent block of the wrong shape, a
# non-finite value, a bad dtype or shape entry, cut or garbled base64,
# or a number list of the wrong shape; each makes the checkpoint invalid
BLOCK_OPS = ["truncate", "reshape", "non-finite", "dtype", "shape", "cut", "garble", "list"]
CLI_FUZZ = settings(settings.get_profile("cli-fuzz"))


def fuzz_block(data, block):
    """An invalid replacement for `block`, drawn from BLOCK_OPS."""
    op, value = data.draw(st.sampled_from(BLOCK_OPS), label="op"), decode(block)
    if op == "truncate":  # the last axis: a prompt may hold any number of tokens
        return encode(value[..., :-1])
    if op == "reshape":
        return encode(value[None] if value.ndim == 1 else value.ravel())
    if op == "non-finite":
        flat = value.ravel()
        flat[data.draw(st.integers(0, flat.size - 1), label="index")] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]), label="non-finite")
        return encode(flat.reshape(value.shape))
    if op == "dtype":
        return dict(block, dtype=data.draw(st.sampled_from(["<f4", ">f8", "float64", 8, None]),
                                           label="dtype"))
    if op == "shape":
        shape = block["shape"]
        return dict(block, shape=data.draw(st.sampled_from(
            [shape + [1], shape[:-1], [n + 1 for n in shape], [-n for n in shape],
             [float(n) for n in shape], [str(n) for n in shape]]), label="shape"))
    text = block["base64"]
    if op == "cut":
        return dict(block, base64=text[:-data.draw(st.integers(1, 12), label="chars")])
    if op == "garble":
        i = data.draw(st.integers(0, len(text) - 1), label="at")
        return dict(block, base64=text[:i] + data.draw(st.sampled_from("!*- é"), label="char")
                    + text[i + 1:])
    return value[..., :-1].tolist()


@CLI_FUZZ
@given(data=st.data())
def test_eval_rejects_fuzzed_checkpoint(trained_run, merged_raw, data):
    """Random key deletions and type swaps, and random edits of an array's
    base64 block (see BLOCK_OPS), in the trained or the merged checkpoint:
    `eval` exits 2, 3 or 4, writing nothing."""
    dataset, raw = trained_run
    merged = data.draw(st.booleans(), label="merged")
    raw = json.loads(json.dumps(merged_raw if merged else raw))
    arrays = MERGED_ARRAY_FIELDS if merged else ARRAY_FIELDS
    scalars = MERGED_SCALAR_FIELDS if merged else SCALAR_FIELDS
    path = data.draw(st.sampled_from(TOP_LEVEL + scalars + arrays), label="path")
    node, last = _at(raw, path)
    op = data.draw(st.sampled_from(["delete", "swap"] + (["block"] if path in arrays else [])),
                   label="edit")
    if op == "delete":
        del node[last]
    elif op == "swap":
        node[last] = data.draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(node[last])]), label="value")
    else:
        node[last] = fuzz_block(data, node[last])
    with tempfile.TemporaryDirectory() as root:
        code, err, wrote = eval_edited_checkpoint(dataset, raw, root)
    assert code in (2, 3, 4), err
    assert "Traceback" not in err
    assert not wrote


def _numbers(value) -> bool:
    """Whether `value` is a nonempty JSON array of numbers or of such arrays."""
    return isinstance(value, list) and bool(value) and all(
        type(v) in (int, float) or _numbers(v) for v in value)


def json_paths(raw, path=()):
    """Every path into a parsed JSON file, an array of numbers counting as one leaf."""
    items = (raw.items() if isinstance(raw, dict) else
             enumerate(raw) if isinstance(raw, list) and not _numbers(raw) else [])
    return [path] + [p for key, value in items for p in json_paths(value, path + (key,))]


def fuzz_edit(data, raw):
    """`raw` after one drawn edit: the value at a path of it deleted or
    swapped for a value of another JSON type, or an array of numbers cut
    short, made ragged or given a non-finite entry."""
    path = data.draw(st.sampled_from(json_paths(raw)), label="path")
    if not path:
        return data.draw(st.sampled_from(SWAPS), label="value")
    node, last = _at(raw, path)
    numeric = _numbers(node[last])
    op = data.draw(st.sampled_from(["delete", "swap"] + (["cut", "non-finite"] if numeric else [])),
                   label="op")
    if op == "delete":
        del node[last]
    elif op == "swap":
        node[last] = data.draw(st.sampled_from(
            [v for v in SWAPS if type(v) is not type(node[last])]), label="value")
    elif op == "cut":
        node[last] = [node[last][0][:-1]] + node[last][1:] if isinstance(node[last][0], list) \
            else node[last][:-1]
    else:
        value = np.asarray(node[last], dtype=np.float64)
        flat = value.ravel()
        flat[data.draw(st.integers(0, flat.size - 1), label="index")] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]), label="non-finite")
        node[last] = flat.reshape(value.shape).tolist()
    return raw


def run_strict(argv, out):
    """Exit code of `main(argv)`, once every JSON file it wrote under `out`
    has been checked to hold no NaN or infinity."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    for path in Path(out).rglob("*.json*"):
        text = path.read_text()
        for doc in (text.splitlines() if path.suffix == ".jsonl" else [text]):
            json.loads(doc, parse_constant=lambda c: pytest.fail(f"{path} holds {c}"))
    assert "Traceback" not in err.getvalue()
    return code


@pytest.mark.parametrize("target", ["bag", "prompts", "manifest"])
@CLI_FUZZ
@given(data=st.data())
def test_eval_survives_fuzzed_input_file(trained_run, target, data):
    """Random deletions, type swaps, cut or ragged arrays and non-finite
    values in a test slide's bag file, the prompt file or the manifest:
    `eval` exits 0, 2, 3 or 4, with no traceback and no NaN written."""
    dataset, raw = trained_run
    manifest = read_json(dataset / "manifest.json")
    test_slide = raw["split"]["test"][0]
    name = {"bag": next(s["file"] for s in manifest["slides"] if s["id"] == test_slide),
            "prompts": manifest["prompts_file"], "manifest": "manifest.json"}[target]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        shutil.copytree(dataset, root / "data")
        (root / "data" / name).write_text(json.dumps(fuzz_edit(data, read_json(dataset / name))))
        (root / "checkpoint.json").write_text(json.dumps(raw))
        code = run_strict(["eval", "--data", str(root / "data"), "--checkpoint",
                           str(root / "checkpoint.json"), "--out", str(root / "out")], root / "out")
    assert code in (0, 2, 3, 4)


@CLI_FUZZ
@given(data=st.data())
def test_params_survives_fuzzed_config(data):
    """The same edits of a config file: `params` exits 0, 2, 3 or 4."""
    with tempfile.TemporaryDirectory() as root:
        config = Path(root) / "config.json"
        config.write_text(json.dumps(fuzz_edit(data, json.loads(json.dumps(FAST_CONFIG)))))
        code = run_strict(["params", "--config", str(config), "--out", f"{root}/out"],
                          f"{root}/out")
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("kind,what", [("config", "config file"), ("checkpoint", "checkpoint"),
                                       ("manifest", "manifest"), ("prompts", "prompt file"),
                                       ("bag", "bag file")])
def test_file_not_utf8_or_nested_too_deep_exits_naming_it(tmp_path, trained_run, kind, what):
    """Every input file is read as UTF-8 JSON: a file that starts with a
    UTF-16 byte order mark, or nests 100,000 arrays, exits 2 (a config)
    or 3 (any other file) naming the file, with no traceback."""
    dataset, raw = trained_run
    data = Path(shutil.copytree(dataset, tmp_path / "data"))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(raw))
    manifest = read_json(data / "manifest.json")
    test_slide = raw["split"]["test"][0]
    path = {"config": tmp_path / "config.json", "checkpoint": checkpoint,
            "manifest": data / "manifest.json", "prompts": data / manifest["prompts_file"],
            "bag": data / next(s["file"] for s in manifest["slides"] if s["id"] == test_slide)}[kind]
    argv = {"config": ["params", "--config", path],
            "checkpoint": ["merge", "--checkpoint", path, "--out", tmp_path / "out"]}.get(
        kind, ["eval", "--data", data, "--checkpoint", checkpoint, "--out", tmp_path / "out"])
    for content in (b"\xff\xfe{}", b"[" * 100_000):
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        assert code == (2 if kind == "config" else 3)
        assert f"cannot read {what} {path}: " in err.getvalue()


@CLI_FUZZ
@given(blob=st.binary(max_size=64))
def test_random_bytes_as_config_or_checkpoint_exit_2_or_3(blob):
    """Random bytes as a config file exit 2, and as a checkpoint exit 3."""
    assume(blob.strip(b" \t\n\r") != b"{}")  # the one config that bytes this short can hold
    with tempfile.TemporaryDirectory() as root:
        path, out = Path(root) / "input.json", Path(root) / "out"
        path.write_bytes(blob)
        assert run_strict(["params", "--config", str(path), "--out", str(out)], out) == 2
        assert run_strict(["merge", "--checkpoint", str(path), "--out", str(out)], out) == 3


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


def test_eval_rejects_instance_norm_that_overflows(tmp_path, dataset_dir, checkpoint, capsys):
    """A bag whose finite embeddings are scaled by 1e200 squares to
    infinity in every cosine; it is rejected where it is read, naming the
    file, the slide and the region, instead of scored as [0.5, 0.5]."""
    slide_id = read_json(checkpoint)["split"]["test"][0]
    files = {s["id"]: s["file"] for s in read_json(dataset_dir / "manifest.json")["slides"]}
    bag_path = dataset_dir / files[slide_id]
    raw = edit_bag_rows(bag_path, lambda m, rows: rows.__imul__(1e200) if m == 1 else None)
    out = tmp_path / "out"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    err = capsys.readouterr().err
    assert (f"{bag_path}: slide {slide_id} region {raw['regions'][1]['id']}: an instance "
            f"embedding's norm is above 1.341e+154") in err


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
        cli.write_json(path, {"auc": float("nan")}, indent=1)
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
        assert main(["params", "--config", config_path, "--set", f"train.depth={d}",
                     "--out", str(out)]) == 0
        counts.append(read_json(out / "params.json")["trainable"])
    assert counts[0] < counts[1] < counts[2]


# flags a subcommand does not read, among them probes that exited 0 when
# five knob flags sat on every subcommand, and a negative gradcheck seed:
# each exits 2 before anything is read or written
REJECTED_FLAGS = {
    "localize-config": "localize --data D --checkpoint C --out O --config C",
    "merge-set": "merge --checkpoint C --out O --set train.seed=1",
    "gradcheck-config": "gradcheck --out O --config C",
    "gradcheck-negative-seed": "gradcheck --out O --seed -1",
    "eval-checkpoint-set": "eval --data D --checkpoint C --out O --set train.shots=8",
    "eval-checkpoint-config": "eval --data D --checkpoint C --out O --config C",
    "eval-sweep-checkpoint": "eval --data D --sweep --checkpoint C --out O",
    "eval-sweep-split": "eval --data D --sweep --split val --folds 1 --seeds 1 --out O",
    "eval-checkpoint-grid": "eval --data D --checkpoint C --out O --folds 0 --seeds 9",
    "generate-knob-flags": "generate --out O --lambda nan --k 0 --d-s 99",
    "train-seed-flag": "train --data D --out O --seed 3",
}


@pytest.mark.parametrize("case", sorted(REJECTED_FLAGS))
def test_rejected_flags_exit_2(tmp_path, case):
    paths = {"D": tmp_path / "data", "C": tmp_path / "missing.json", "O": tmp_path / "out"}
    argv = [str(paths.get(word, word)) for word in REJECTED_FLAGS[case].split()]
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag
            code = exc.code
    assert code == 2
    assert not paths["O"].exists()


CONFIG_KEYS = [f"{section}.{name}" for section, fields in RunConfig().to_dict().items()
               for name in fields]
JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                           max_leaves=6).map(json.dumps)


@CLI_FUZZ
@given(key=st.sampled_from(CONFIG_KEYS) | st.text(max_size=20),
       value=JSON_VALUES | st.text(max_size=20))
def test_params_set_fuzz_exits_0_or_2(key, value):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert main(["params", f"--set={key}={value}"]) in (0, 2)


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
