"""Checkpoints and prompt files of format 1 (arrays as number lists) still
load, and re-save as format 2 (arrays as base64 blocks) bit for bit.

The files under tests/data/format1/ were written by commit 1270438, the
last commit that wrote format 1, from tests/data/format1/config.json (a
toy encoder: dim 8, 3 blocks, the last 2 adapted) with

    textmil generate --config config.json --out data
    textmil train --config config.json --data data --out run
    textmil merge --checkpoint run/checkpoint.json --out merged
    textmil eval --data data --checkpoint run/checkpoint.json --out ev1
    textmil eval --data data --checkpoint merged/checkpoint_merged.json --out ev2

and copied as checkpoint.json (run/), checkpoint_merged.json (merged/),
prompts.json (data/), metrics.json (ev1/) and metrics_merged.json (ev2/).
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from textmil.cli import main
from textmil.data import build_dataset, load_dataset, write_dataset
from textmil.errors import NumericError
from textmil.hierpool import save_bag
from textmil.metrics import evaluate
from textmil.model import load_checkpoint, merge_model, save_checkpoint
from textmil.textenc import load_prompts, save_prompts

from test_textenc import weight_arrays

FORMAT1 = Path(__file__).parent / "data" / "format1"
CHECKPOINTS = {"checkpoint.json": "metrics.json",
               "checkpoint_merged.json": "metrics_merged.json"}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The fixtures' dataset, generated again from their config."""
    out = tmp_path_factory.mktemp("format1") / "data"
    assert main(["generate", "--config", str(FORMAT1 / "config.json"), "--out", str(out)]) == 0
    return out


def model_arrays(model) -> dict:
    """Every array of a model by name: backbone, adapters, attention and prompts."""
    arrays = {f"stack.{i}": a for i, a in enumerate(weight_arrays(model.stack))}
    arrays |= {f"ssf.{block}.{kind}.{v}": getattr(p, v)
               for (block, kind), p in model.sites.items() for v in ("gamma", "beta")}
    arrays |= {f"attn.{f}": getattr(model.attention, f) for f in type(model.attention).FIELDS}
    return arrays | prompt_arrays(model.prompts)


def prompt_arrays(prompts) -> dict:
    return {f"prompts.{c.class_id}.{t}": getattr(c, t) for c in prompts.classes
            for t in ("region_tokens", "slide_tokens")}


def assert_bitwise_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype == np.float64, name
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_format1_checkpoint_resaves_as_format2_bitwise(tmp_path, name):
    model, history, split = load_checkpoint(FORMAT1 / name)
    path = tmp_path / name
    save_checkpoint(model, path, history=history, split=split)
    raw, old = json.loads(path.read_text()), json.loads((FORMAT1 / name).read_text())
    assert (old["format"], raw["format"]) == (1, 2)
    # format 1 also listed block 1's frozen identity records; format 2
    # lists the adapters of blocks 2 and 3 only, and a merged model none
    assert len(raw["ssf"]) == (0 if model.merged else 4)
    assert len(old["ssf"]) == (0 if model.merged else 6)
    again, history2, split2 = load_checkpoint(path)
    assert (history2, split2) == (history, split) == (old["history"], old["split"])
    assert again.merged == model.merged and again.config == model.config
    assert_bitwise_equal(model_arrays(again), model_arrays(model))
    assert path.stat().st_size < 0.75 * (FORMAT1 / name).stat().st_size


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_format1_checkpoint_evaluates_as_it_did_when_written(tmp_path, dataset, name):
    """`eval` of the format-1 file and of its format-2 re-save both write
    the metrics.json that the writing commit wrote, byte for byte."""
    resaved = tmp_path / "format2" / name
    resaved.parent.mkdir()
    model, history, split = load_checkpoint(FORMAT1 / name)
    save_checkpoint(model, resaved, history=history, split=split)
    for i, path in enumerate([FORMAT1 / name, resaved]):
        out = tmp_path / f"eval{i}"
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(path),
                     "--out", str(out)]) == 0
        assert (out / "metrics.json").read_bytes() == \
            (FORMAT1 / CHECKPOINTS[name]).read_bytes()


def test_format1_prompt_file_resaves_as_format2_bitwise(tmp_path, dataset):
    prompts = load_prompts(FORMAT1 / "prompts.json")
    spec = load_dataset(dataset).spec
    assert_bitwise_equal(prompt_arrays(prompts), prompt_arrays(build_dataset(spec).prompts))
    save_prompts(prompts, tmp_path / "prompts.json")
    raw = json.loads((tmp_path / "prompts.json").read_text())
    assert set(raw["classes"][0]["region_tokens"]) == {"dtype", "shape", "base64"}
    again = load_prompts(tmp_path / "prompts.json")
    assert again.tumor_class == prompts.tumor_class
    assert [c.name for c in again.classes] == [c.name for c in prompts.classes]
    assert_bitwise_equal(prompt_arrays(again), prompt_arrays(prompts))
    assert (tmp_path / "prompts.json").stat().st_size < (FORMAT1 / "prompts.json").stat().st_size


def test_format1_prompt_file_evaluates_as_its_format2_resave(tmp_path, dataset):
    """A model holding the format-1 prompt set, or its format-2 re-save,
    gives the same probabilities on the test slides; so does a dataset
    whose prompt file is the format-1 one, for `train`."""
    model, _, split = load_checkpoint(FORMAT1 / "checkpoint.json")
    bags = load_dataset(dataset).select(split["test"])
    save_prompts(load_prompts(FORMAT1 / "prompts.json"), tmp_path / "prompts.json")
    rows = []
    for path in (FORMAT1 / "prompts.json", tmp_path / "prompts.json"):
        model.prompts = load_prompts(path)
        rows.append(evaluate(model, bags).per_slide)
        rows.append(evaluate(merge_model(model), bags).per_slide)
    assert rows[0] == rows[2] and rows[1] == rows[3]

    old = Path(shutil.copytree(dataset, tmp_path / "old"))
    shutil.copy(FORMAT1 / "prompts.json", old / "prompts.json")
    config = str(FORMAT1 / "config.json")
    for data, run in ((dataset, tmp_path / "run_new"), (old, tmp_path / "run_old")):
        assert main(["train", "--config", config, "--data", str(data), "--out", str(run)]) == 0
    assert (tmp_path / "run_new" / "checkpoint.json").read_bytes() == \
        (tmp_path / "run_old" / "checkpoint.json").read_bytes()


def _poisoned(writer: str, tmp_path):
    """(the file `writer` must refuse, a call that writes it) for a NaN or
    infinity in one array of what it writes."""
    model, _, _ = load_checkpoint(FORMAT1 / "checkpoint.json")
    ds = build_dataset(model.config.generator)
    bag = ds.bags[3]
    if writer == "save_bag":
        bag.regions[1].embeddings[0, 2] = np.nan
        return tmp_path / "bag.json", lambda path: save_bag(bag, path)
    if writer == "write_dataset":
        bag.regions[0].embeddings[1, 0] = -np.inf
        return (tmp_path / "d" / "slides" / f"{bag.slide_id}.json",
                lambda path: write_dataset(ds, tmp_path / "d"))
    if writer == "save_prompts":
        ds.prompts.classes[1].region_tokens[0, 3] = np.inf
        return tmp_path / "prompts.json", lambda path: save_prompts(ds.prompts, path)
    if writer == "save_checkpoint":
        [*model.sites.values()][2].beta[5] = np.nan
    else:  # a merged checkpoint's backbone
        model = merge_model(model)
        model.stack.blocks[1].w2[0, 1] = np.inf
    return tmp_path / "ckpt.json", lambda path: save_checkpoint(model, path)


@pytest.mark.parametrize("writer", ["save_bag", "write_dataset", "save_prompts",
                                    "save_checkpoint", "save_checkpoint-merged"])
def test_every_writer_refuses_a_non_finite_array_value(tmp_path, writer):
    path, write = _poisoned(writer, tmp_path)
    with pytest.raises(NumericError, match=f"refusing to write {re.escape(str(path))}: non-finite"):
        write(path)
    assert not path.exists()
