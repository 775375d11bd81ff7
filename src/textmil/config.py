"""Run configuration: nested dataclasses with strict JSON loading.

Every field has a working default; unknown keys are rejected so typos
fail fast instead of silently running a different experiment. A config
file is read by `errors.read`, which takes each field's kind from its
annotation: an `int` field takes only a JSON integer (not a bool, not
8.0), a `float` field only a finite number, so `{"train": {"seed": 1.5}}`
is a ConfigError naming `train.seed` rather than a crash or a silent
cast. A dataset manifest's `generator` section is read the same way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import GeneratorSpec
from .errors import ConfigError, json_input, read
from .hierpool import SALIENCY_MODES, RefinementConfig


@dataclass
class EncoderConfig:
    dim: int = 64            # shared text/instance embedding width
    blocks: int = 12         # frozen stack depth
    mlp_hidden: int = 16
    attn_hidden: int = 32    # gated-attention hidden width
    backbone_seed: int = 2024

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        for name in ("blocks", "mlp_hidden", "attn_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.backbone_seed < 0:  # numpy seeds are non-negative
            raise ConfigError(f"encoder.backbone_seed must be >= 0, got {self.backbone_seed}")


@dataclass
class TrainConfig:
    temperature: float = 0.07
    lr: float = 3e-3         # paper-style sweeps stay within [1e-4, 1e-2]
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 100
    patience: int = 20
    seed: int = 0
    depth: int = 2           # trailing blocks with trainable adapters
    ssf_init_std: float = 0.02
    shots: int = 4

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.patience > self.max_epochs:
            raise ConfigError(f"patience {self.patience} exceeds max_epochs {self.max_epochs}")
        if self.shots < 1 or self.depth < 1 or self.max_epochs < 1:
            raise ConfigError("shots, depth and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")


@dataclass
class LocalizationConfig:
    saliency: str = "multiplicative"
    threshold: float = 0.5

    def __post_init__(self):
        if self.saliency not in SALIENCY_MODES:
            raise ConfigError(f"saliency must be one of {SALIENCY_MODES}, got {self.saliency!r}")
        if not 0 <= self.threshold <= 1:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)

    def __post_init__(self):
        if self.train.depth > self.encoder.blocks:
            raise ConfigError(
                f"depth {self.train.depth} exceeds encoder blocks {self.encoder.blocks}")

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


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with json_input(path, "config file", ConfigError) as raw:
        return config_from_dict(raw)


def apply_overrides(cfg: RunConfig, *, seed: int | None = None, shots: int | None = None,
                    depth: int | None = None, factor: float | None = None,
                    threshold: float | None = None) -> RunConfig:
    """Command-line overrides for the most commonly swept knobs, each read
    as its config field is, so `--lambda nan` is a ConfigError too."""
    data = cfg.to_dict()
    for section, values in (("train", dict(seed=seed, shots=shots, depth=depth)),
                            ("refinement", dict(factor=factor, threshold=threshold))):
        data[section].update((k, v) for k, v in values.items() if v is not None)
    return config_from_dict(data)
