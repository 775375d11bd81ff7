"""Run configuration: every section, each field's rule, and strict JSON
loading. It imports no textmil module but `errors`.

Every field has a working default; unknown keys are rejected. A config
file, a manifest's `generator` section, a checkpoint's `config` section
and each `--set section.field=VALUE` are read by `errors.read`, which
takes each field's kind from its annotation: an `int` field takes only a
JSON integer (not a bool, not 8.0), a `float` field only a finite number.
Each field's range is declared beside it, `checked(default, rule)`: ">= 1",
"> 0", an interval such as "[0, 1)", or a tuple of the accepted values.
Every section's `__post_init__` checks them all with `check_fields`, which
names the field and its value: "train.beta1 must be in [0, 1), got 1.0".
The few rules between two fields follow as code and name both fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, json_input, read

GRADIENT_MODES = ("through-score", "detached")
SALIENCY_MODES = ("multiplicative", "instance-only")


def checked(default, rule):
    """A dataclass field of `default` whose value must obey `rule`."""
    return field(default=default, metadata={"rule": rule})


def _broken(name: str, rule: str, value) -> ConfigError:
    return ConfigError(f"{name} must be {rule}, got {value!r}")


def _within(value, rule: str) -> bool:
    if rule[0] == ">":  # ">= 1" or "> 0"
        op, bound = rule.split()
        return value >= float(bound) if op == ">=" else value > float(bound)
    lo, hi = map(float, rule[1:-1].split(","))  # an interval such as "[0, 1)"
    return ((lo <= value if rule[0] == "[" else lo < value)
            and (value <= hi if rule[-1] == "]" else value < hi))


def check_fields(cfg, section: str) -> None:
    """Raise a ConfigError naming `section.field` for the first field of
    the config section `cfg` whose value breaks its declared rule."""
    for f in fields(cfg):
        rule, value = f.metadata.get("rule"), getattr(cfg, f.name)
        if isinstance(rule, tuple) and value not in rule:
            raise _broken(f"{section}.{f.name}", f"one of {rule}", value)
        if isinstance(rule, str) and not _within(value, rule):
            raise _broken(f"{section}.{f.name}", rule if rule[0] == ">" else f"in {rule}", value)


@dataclass
class EncoderConfig:
    dim: int = checked(64, ">= 2")            # shared text/instance embedding width
    blocks: int = checked(12, ">= 1")         # frozen stack depth
    mlp_hidden: int = checked(16, ">= 1")
    attn_hidden: int = checked(32, ">= 1")    # gated-attention hidden width
    backbone_seed: int = checked(2024, ">= 0")  # numpy seeds are non-negative

    def __post_init__(self):
        check_fields(self, "encoder")


@dataclass
class TrainConfig:
    temperature: float = checked(0.07, "> 0")
    lr: float = checked(3e-3, ">= 0")  # paper-style sweeps stay within [1e-4, 1e-2]
    beta1: float = checked(0.9, "[0, 1)")
    beta2: float = checked(0.999, "[0, 1)")
    adam_eps: float = checked(1e-8, "> 0")
    max_epochs: int = checked(100, ">= 1")
    patience: int = checked(20, ">= 0")
    seed: int = checked(0, ">= 0")
    depth: int = checked(2, ">= 1")    # trailing blocks with trainable adapters
    ssf_init_std: float = checked(0.02, ">= 0")
    shots: int = checked(4, ">= 1")

    def __post_init__(self):
        check_fields(self, "train")
        if self.patience > self.max_epochs:
            raise _broken("train.patience", f"<= train.max_epochs = {self.max_epochs}",
                          self.patience)


@dataclass
class RefinementConfig:
    """Refinement factor, threshold and how its gradient is treated."""

    factor: float = checked(10.0, "> 0")
    threshold: float = checked(0.2, "(0, 1)")
    gradient: str = checked("through-score", GRADIENT_MODES)
    enabled: bool = True

    def __post_init__(self):
        check_fields(self, "refinement")


@dataclass
class GeneratorSpec:
    seed: int = checked(0, ">= 0")
    n_classes: int = checked(2, ">= 2")
    dim: int = checked(64, ">= 2")
    noise_std: float = checked(0.05, "> 0")
    slides_per_class: int = checked(48, ">= 1")
    regions_min: int = checked(3, ">= 1")
    regions_max: int = 5
    instances_min: int = checked(3, ">= 1")
    instances_max: int = 4
    tumor_region_fraction: float = checked(0.75, "(0, 1]")
    tumor_instance_fraction: float = checked(0.85, "(0, 1]")
    prompt_alignment: float = checked(0.7, "[0, 1]")
    region_tokens: int = checked(4, ">= 1")
    slide_tokens: int = checked(4, ">= 1")
    normal_class: int | None = 0
    test_per_class: int = checked(20, ">= 0")
    val_per_class: int = checked(12, ">= 0")

    def __post_init__(self):
        check_fields(self, "generator")
        for low, high in (("regions_min", "regions_max"), ("instances_min", "instances_max")):
            if getattr(self, high) < getattr(self, low):
                raise _broken(f"generator.{high}", f">= generator.{low} = {getattr(self, low)}",
                              getattr(self, high))
        if self.normal_class is not None and not 0 <= self.normal_class < self.n_classes:
            raise _broken("generator.normal_class", f"None or in [0, generator.n_classes) = "
                          f"[0, {self.n_classes})", self.normal_class)
        held_out = self.test_per_class + self.val_per_class
        if self.slides_per_class <= held_out:
            raise _broken("generator.slides_per_class", "> generator.test_per_class + "
                          f"generator.val_per_class = {held_out}", self.slides_per_class)


@dataclass
class LocalizationConfig:
    saliency: str = checked("multiplicative", SALIENCY_MODES)
    threshold: float = checked(0.5, "[0, 1]")

    def __post_init__(self):
        check_fields(self, "localization")


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)

    def __post_init__(self):
        if self.train.depth > self.encoder.blocks:
            raise _broken("train.depth", f"<= encoder.blocks = {self.encoder.blocks}",
                          self.train.depth)

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(data, at: str = "") -> RunConfig:
    """The RunConfig of a parsed JSON object; each field is read as its
    annotation says (`errors.read`), and a bad one raises a ConfigError
    naming it under `at`."""
    try:
        return read(data, RunConfig, at)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path | None, settings=()) -> RunConfig:
    """The config file at `path` (the defaults if None) with each
    `section.field=VALUE` of `settings` set in turn. VALUE is JSON text,
    or else a plain string, and is read as a config file's value is, so
    `refinement.factor=nan` is a ConfigError naming the field too."""
    if path is None:
        cfg = RunConfig()
    else:
        with json_input(path, "config file", ConfigError) as raw:
            cfg = config_from_dict(raw)
    data = cfg.to_dict()
    for setting in settings:
        key, eq, text = setting.partition("=")
        section, dot, name = key.partition(".")
        if not (eq and dot and section in data):
            raise ConfigError(f"--set {setting!r} is not section.field=VALUE "
                              f"with a section of {', '.join(data)}")
        try:
            data[section][name] = json.loads(text)
        except (ValueError, RecursionError):  # not JSON text: a plain string
            data[section][name] = text
    return config_from_dict(data) if settings else cfg