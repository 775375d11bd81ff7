"""Every config rule, and config.py as a leaf module.

`RANGES` states each field's accepted values as the README gives them.
A value just outside a range is a ConfigError that names `section.field`
and the value, whether the section is built directly, read from a config
file or a checkpoint, set with `--set`, or, for the generator, read from
a dataset manifest; the value at a closed end (or just inside an open
one) is accepted. The rules between two fields name both fields and run
after the rules of one field.
"""

import ast
import contextlib
import io
import json
import math
import typing
from dataclasses import fields
from pathlib import Path

import pytest

from textmil.cli import main
from textmil.config import GRADIENT_MODES, SALIENCY_MODES, RunConfig, load_config
from textmil.errors import ConfigError

SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}

RANGES = {
    "encoder.dim": ">= 2", "encoder.blocks": ">= 1", "encoder.mlp_hidden": ">= 1",
    "encoder.attn_hidden": ">= 1", "encoder.backbone_seed": ">= 0",
    "train.temperature": "> 0", "train.lr": ">= 0", "train.beta1": "[0, 1)",
    "train.beta2": "[0, 1)", "train.adam_eps": "> 0", "train.max_epochs": ">= 1",
    "train.patience": ">= 0", "train.seed": ">= 0", "train.depth": ">= 1",
    "train.ssf_init_std": ">= 0", "train.shots": ">= 1",
    "refinement.factor": "> 0", "refinement.threshold": "(0, 1)",
    "refinement.gradient": GRADIENT_MODES,
    "generator.seed": ">= 0", "generator.n_classes": ">= 2", "generator.dim": ">= 2",
    "generator.noise_std": "> 0", "generator.slides_per_class": ">= 1",
    "generator.regions_min": ">= 1", "generator.instances_min": ">= 1",
    "generator.tumor_region_fraction": "(0, 1]", "generator.tumor_instance_fraction": "(0, 1]",
    "generator.prompt_alignment": "[0, 1]", "generator.region_tokens": ">= 1",
    "generator.slide_tokens": ">= 1", "generator.test_per_class": ">= 0",
    "generator.val_per_class": ">= 0",
    "localization.saliency": SALIENCY_MODES, "localization.threshold": "[0, 1]",
}

# settings that a boundary value needs to pass the rules between fields
CONTEXT = {
    "encoder.blocks": ["train.depth=1"],
    "train.max_epochs": ["train.patience=0"],
    "generator.slides_per_class": ["generator.test_per_class=0", "generator.val_per_class=0"],
}


def _kind(key):
    section, name = key.split(".")
    return typing.get_type_hints(SECTIONS[section])[name]


def _edges(key):
    """(value just outside, value accepted) at each end of the range of `key`."""
    rule, kind = RANGES[key], _kind(key)
    if isinstance(rule, tuple):
        return [("nonsense", rule[-1])]
    if kind is int:
        def step(x, way):
            return x + way
    else:
        def step(x, way):
            return math.nextafter(x, way * math.inf)
    if rule[0] in "[(":
        lo, hi = map(float, rule[1:-1].split(","))
        ends = [(lo, rule[0] == "[", -1), (hi, rule[-1] == "]", 1)]
    else:
        op, bound = rule.split()
        ends = [(float(bound), op == ">=", -1)]
    return [(step(kind(b), out), kind(b)) if closed else (kind(b), step(kind(b), -out))
            for b, closed, out in ends]


CASES = [(key, bad, good) for key in RANGES for bad, good in _edges(key)]


def phrase(rule):
    """A range as an error message (and the README) states it."""
    return (f"one of {rule}" if isinstance(rule, tuple)
            else f"in {rule}" if rule[0] in "[(" else rule)


def _message(key, bad):
    return f"{key} must be {phrase(RANGES[key])}, got {bad!r}"


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def test_ranges_are_the_declared_rules():
    declared = {f"{section}.{f.name}": f.metadata["rule"]
                for section, cls in SECTIONS.items() for f in fields(cls) if "rule" in f.metadata}
    assert declared == RANGES


@pytest.mark.parametrize("key,bad,good", CASES, ids=[f"{k}={b!r}" for k, b, _ in CASES])
def test_value_just_outside_a_range_is_named(tmp_path, key, bad, good):
    section, name = key.split(".")
    with pytest.raises(ConfigError) as info:
        SECTIONS[section](**{name: bad})
    assert str(info.value) == _message(key, bad)

    code, err = _run(["params", "--set", f"{key}={json.dumps(bad)}"])
    assert (code, err) == (2, f"config error: {_message(key, bad)}\n")

    files = {"config.json": {section: {name: bad}},
             "checkpoint.json": {"format": 2, "config": {section: {name: bad}}}}
    out = tmp_path / "out"
    runs = [(["params", "--config", tmp_path / "config.json"], 2, "config.json"),
            (["merge", "--checkpoint", tmp_path / "checkpoint.json", "--out", out], 3,
             "checkpoint.json")]
    if section == "generator":
        files["data/manifest.json"] = {"format": 1, "generator": {name: bad},
                                       "prompts_file": "prompts.json", "slides": []}
        runs.append((["train", "--data", tmp_path / "data", "--out", out], 3,
                     "data/manifest.json"))
    for file, payload in files.items():
        (tmp_path / file).parent.mkdir(exist_ok=True)
        (tmp_path / file).write_text(json.dumps(payload))
    for argv, want, file in runs:
        code, err = _run(argv)
        assert code == want
        assert f"{tmp_path / file}: {_message(key, bad)}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("key,bad,good", CASES, ids=[f"{k}={g!r}" for k, _, g in CASES])
def test_value_at_the_end_of_a_range_is_accepted(key, bad, good):
    section, name = key.split(".")
    context = CONTEXT.get(key, [])
    same = {k.split(".")[1]: json.loads(v) for k, v in (c.split("=") for c in context)
            if k.startswith(f"{section}.")}
    assert getattr(SECTIONS[section](**{name: good}, **same), name) == good
    cfg = load_config(None, [*context, f"{key}={json.dumps(good)}"])
    assert getattr(getattr(cfg, section), name) == good


CROSS_FIELD = {
    "train.patience=101": "train.patience must be <= train.max_epochs = 100, got 101",
    "train.depth=13": "train.depth must be <= encoder.blocks = 12, got 13",
    "generator.regions_max=2": "generator.regions_max must be >= generator.regions_min = 3, got 2",
    "generator.instances_max=2":
        "generator.instances_max must be >= generator.instances_min = 3, got 2",
    "generator.normal_class=2":
        "generator.normal_class must be None or in [0, generator.n_classes) = [0, 2), got 2",
    "generator.normal_class=-1":
        "generator.normal_class must be None or in [0, generator.n_classes) = [0, 2), got -1",
    "generator.slides_per_class=32": "generator.slides_per_class must be > "
                                     "generator.test_per_class + generator.val_per_class = 32, "
                                     "got 32",
    # the rule of one field runs first, so the field at fault is named
    "train.max_epochs=0": "train.max_epochs must be >= 1, got 0",
    "encoder.blocks=0": "encoder.blocks must be >= 1, got 0",
}


@pytest.mark.parametrize("setting", sorted(CROSS_FIELD))
def test_rule_between_two_fields_names_both(setting):
    with pytest.raises(ConfigError) as info:
        load_config(None, [setting])
    assert str(info.value) == CROSS_FIELD[setting]


@pytest.mark.parametrize("setting", [
    "train.patience=100", "train.depth=12", "generator.regions_max=3", "generator.instances_max=3",
    "generator.normal_class=null", "generator.normal_class=1", "generator.slides_per_class=33"])
def test_rule_between_two_fields_accepts_its_boundary(setting):
    load_config(None, [setting])


def test_config_module_imports_no_textmil_module_but_errors():
    path = Path(__file__).resolve().parent.parent / "src" / "textmil" / "config.py"
    imported = set()  # the textmil modules it imports, by name
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("textmil")):
            module = (node.module or "") if node.level else node.module.partition(".")[2]
            imported.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name.partition(".")[2] or a.name for a in node.names
                            if a.name.partition(".")[0] == "textmil")
    assert imported == {"errors"}
