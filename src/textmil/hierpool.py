"""Hierarchical text-guided attention pooling over embedding bags.

A slide is a bag of regions, each region a bag of instance embeddings.
Both levels use gated attention (w^T (tanh(V1 h) .* sigmoid(V2 h)))
with an additive refinement score derived from the cosine similarity
between the pooled item and a guidance text embedding: similarities
above a threshold are amplified by a fixed factor, small positive ones
pass through unchanged, non-positive ones contribute nothing. Passing
no guidance reduces both levels to plain gated attention pooling.

Each level pools a whole matrix at once (the instances of a region, the
region embeddings of a slide) with the matrix primitives of `tape`.
Training, evaluation and the gradient check all run this one path:
plain arrays simply record nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape as tp
from .errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# bag containers


@dataclass
class Region:
    region_id: str
    coord: tuple[int, int]
    instance_coords: list[tuple[int, int]]
    embeddings: np.ndarray            # (n_instances, dim)
    mask: np.ndarray | None = None    # (n_instances,) of {0, 1}

    @property
    def n_instances(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class SlideBag:
    slide_id: str
    label: int
    regions: list[Region]

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def dim(self) -> int:
        return self.regions[0].embeddings.shape[1]

    def has_mask(self) -> bool:
        return all(r.mask is not None for r in self.regions)

    def flat_mask(self) -> np.ndarray:
        return np.concatenate([r.mask for r in self.regions])


def validate_bag(bag: SlideBag) -> SlideBag:
    if bag.n_regions < 1:
        raise DataError(f"slide {bag.slide_id} has no regions")
    dim = bag.regions[0].embeddings.shape[1]
    seen_region = set()
    for r in bag.regions:
        if tuple(r.coord) in seen_region:
            raise DataError(f"slide {bag.slide_id}: duplicate region coord {r.coord}")
        seen_region.add(tuple(r.coord))
        if r.embeddings.ndim != 2 or r.n_instances < 1:
            raise DataError(f"slide {bag.slide_id} region {r.region_id} has no instances")
        if r.embeddings.shape[1] != dim:
            raise DataError(f"slide {bag.slide_id}: inconsistent embedding dims")
        if not np.isfinite(r.embeddings).all():
            raise DataError(f"slide {bag.slide_id} region {r.region_id}: non-finite embedding values")
        if len(r.instance_coords) != r.n_instances:
            raise DataError(f"slide {bag.slide_id} region {r.region_id}: coords do not align with instances")
        if len(set(map(tuple, r.instance_coords))) != r.n_instances:
            raise DataError(f"slide {bag.slide_id} region {r.region_id}: duplicate instance coords")
        if r.mask is not None:
            if r.mask.shape != (r.n_instances,):
                raise DataError(f"slide {bag.slide_id} region {r.region_id}: mask does not align with instances")
            if not np.isin(r.mask, (0, 1)).all():
                raise DataError(f"slide {bag.slide_id} region {r.region_id}: mask entries must be 0 or 1")
    if all((np.linalg.norm(r.embeddings, axis=1) < tp.EPS_NORM).all() for r in bag.regions):
        raise DataError(f"slide {bag.slide_id}: every instance embedding is zero "
                        f"(norm < {tp.EPS_NORM:g})")
    return bag


def load_bag(path: str | Path) -> SlideBag:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read bag file {path}: {exc}") from exc
    try:
        regions = []
        for i, r in enumerate(raw["regions"]):
            insts = r["instances"]
            masks = [inst.get("mask") for inst in insts]
            has_mask = all(m is not None for m in masks)
            regions.append(Region(
                region_id=str(r.get("id", i)),
                coord=tuple(int(c) for c in r["coord"]),
                instance_coords=[tuple(int(c) for c in inst["coord"]) for inst in insts],
                embeddings=np.asarray([inst["embedding"] for inst in insts], dtype=np.float64),
                mask=np.asarray(masks, dtype=np.int64) if has_mask else None,
            ))
        bag = SlideBag(slide_id=str(raw["slide_id"]), label=int(raw["label"]), regions=regions)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed bag file {path}: {exc}") from exc
    return validate_bag(bag)


def save_bag(bag: SlideBag, path: str | Path) -> None:
    payload = {
        "slide_id": bag.slide_id,
        "label": bag.label,
        "regions": [{
            "id": r.region_id,
            "coord": list(r.coord),
            "instances": [{
                "coord": list(r.instance_coords[j]),
                "embedding": r.embeddings[j].tolist(),
                **({"mask": int(r.mask[j])} if r.mask is not None else {}),
            } for j in range(r.n_instances)],
        } for r in bag.regions],
    }
    path = Path(path)
    # a fresh file rather than one truncated in place: some file systems
    # flush a rewritten file on close and stall a later delete of it
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# parameters and configuration


@dataclass
class AttentionParams:
    """Gated-attention weights; the region and slide levels are disjoint."""

    w_r: np.ndarray  # (hidden,)
    v1: np.ndarray   # (hidden, dim)
    v2: np.ndarray   # (hidden, dim)
    w: np.ndarray    # (hidden,)
    u1: np.ndarray   # (hidden, dim)
    u2: np.ndarray   # (hidden, dim)

    FIELDS = ("w_r", "v1", "v2", "w", "u1", "u2")

    def copy(self) -> "AttentionParams":
        return AttentionParams(*(np.array(getattr(self, f), copy=True) for f in self.FIELDS))


def init_attention(seed: int, hidden: int, dim: int) -> AttentionParams:
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    sd_in = 1.0 / np.sqrt(dim)
    sd_h = 1.0 / np.sqrt(hidden)
    return AttentionParams(
        w_r=sd_h * rng.standard_normal(hidden),
        v1=sd_in * rng.standard_normal((hidden, dim)),
        v2=sd_in * rng.standard_normal((hidden, dim)),
        w=sd_h * rng.standard_normal(hidden),
        u1=sd_in * rng.standard_normal((hidden, dim)),
        u2=sd_in * rng.standard_normal((hidden, dim)),
    )


GRADIENT_MODES = ("through-score", "detached")


@dataclass
class RefinementConfig:
    """Refinement factor, threshold and how its gradient is treated."""

    factor: float = 10.0
    threshold: float = 0.2
    gradient: str = "through-score"
    enabled: bool = True

    def __post_init__(self):
        if self.factor <= 0:
            raise ConfigError(f"refinement factor must be > 0, got {self.factor}")
        if not 0 < self.threshold < 1:
            raise ConfigError(f"refinement threshold must be in (0, 1), got {self.threshold}")
        if self.gradient not in GRADIENT_MODES:
            raise ConfigError(f"gradient mode must be one of {GRADIENT_MODES}, got {self.gradient!r}")


# ---------------------------------------------------------------------------
# refinement score


def refine_value(c: float, cfg: RefinementConfig) -> tuple[float, float]:
    """Three-branch score of a cosine similarity and its branch slope:
    amplified strictly above the threshold, pass-through on (0, threshold]
    (the threshold itself stays on the continuous-from-below branch),
    zero for non-positive similarity."""
    if c > cfg.threshold:
        return cfg.factor * c, cfg.factor
    if c > 0.0:
        return c, 1.0
    return 0.0, 0.0


def refinement_score(h, guidance, cfg: RefinementConfig):
    """Piecewise score (`refine_value`) of cos(h, guidance): a float for a
    vector h, one score per row for a matrix h. `guidance=None`
    (degenerate or disabled guidance) scores zero, as does a near-zero-norm
    item. Within a branch the gradient is linear in the cosine; in
    "detached" mode the score is a constant with respect to everything."""
    if guidance is None:
        hv = tp.value(h)
        return 0.0 if hv.ndim == 1 else np.zeros(hv.shape[0])
    if cfg.gradient == "detached":
        h, guidance = tp.value(h), tp.value(guidance)
    return tp.refine_scores(h, guidance, cfg.factor, cfg.threshold)


# ---------------------------------------------------------------------------
# encoders


@dataclass
class RegionOutput:
    embedding: object                  # vector value or tape node
    weights: object                    # softmax weights, value or node
    scores: list[float]                # refinement scores actually used

    def weight_values(self) -> np.ndarray:
        return np.asarray(tp.value(self.weights))


@dataclass
class BagOutput:
    slide_embedding: object
    region_weights: object
    regions: list[RegionOutput]
    region_scores: list[float]

    def region_weight_values(self) -> np.ndarray:
        return np.asarray(tp.value(self.region_weights))

    def frozen_scores(self) -> "BagScores":
        return BagScores(regions=[list(r.scores) for r in self.regions],
                         slide=list(self.region_scores))


@dataclass
class BagScores:
    """Refinement scores captured from one forward pass, reusable as
    constants (the finite-difference oracle for detached-gradient mode)."""

    regions: list[list[float]]
    slide: list[float]


def _attend(items, scores, w, m1, m2):
    """Gated attention over the rows of `items`, shifted by the refinement
    `scores`; returns (pooled vector, softmax weights)."""
    weights = tp.softmax(tp.add(tp.gate_logits(items, w, m1, m2), scores))
    return tp.pool(weights, items), weights


def region_encode(region: Region, guidance, params: AttentionParams, cfg: RefinementConfig,
                  frozen_scores: list[float] | None = None) -> RegionOutput:
    """Attention-pool one region's instances into a region embedding."""
    if region.n_instances < 1:
        raise DataError(f"region {region.region_id} is empty")
    h = region.embeddings
    if frozen_scores is None:
        s = refinement_score(h, guidance, cfg)
    else:
        s = np.asarray(frozen_scores, dtype=np.float64)
    emb, weights = _attend(h, s, params.w_r, params.v1, params.v2)
    return RegionOutput(embedding=emb, weights=weights, scores=tp.value(s).tolist())


def wsi_encode(bag: SlideBag, guidance, params: AttentionParams, cfg: RefinementConfig,
               frozen: BagScores | None = None) -> BagOutput:
    """Pool regions into region embeddings, then those into the slide
    embedding, refining both attention levels with the same guidance."""
    if bag.n_regions < 1:
        raise DataError(f"slide {bag.slide_id} is empty")
    region_outs = []
    for m, region in enumerate(bag.regions):
        fr = frozen.regions[m] if frozen is not None else None
        region_outs.append(region_encode(region, guidance, params, cfg, frozen_scores=fr))
    h = tp.rows([out.embedding for out in region_outs])
    if frozen is None:
        s = refinement_score(h, guidance, cfg)
    else:
        s = np.asarray(frozen.slide, dtype=np.float64)
    emb, weights = _attend(h, s, params.w, params.u1, params.u2)
    return BagOutput(slide_embedding=emb, region_weights=weights,
                     regions=region_outs, region_scores=tp.value(s).tolist())


# ---------------------------------------------------------------------------
# saliency and export

SALIENCY_MODES = ("multiplicative", "instance-only")


def instance_saliency(output: BagOutput, mode: str = "multiplicative") -> list[np.ndarray]:
    """Per-instance score in [0, 1], min-max normalized per slide.

    "multiplicative" combines region and instance attention; when every
    raw value ties (single instance, uniform attention) the whole slide
    gets 0.5."""
    if mode not in SALIENCY_MODES:
        raise ConfigError(f"saliency mode must be one of {SALIENCY_MODES}, got {mode!r}")
    a_regions = output.region_weight_values()
    raw = []
    for m, rout in enumerate(output.regions):
        inst = rout.weight_values()
        raw.append(a_regions[m] * inst if mode == "multiplicative" else inst)
    flat = np.concatenate(raw)
    lo, hi = float(flat.min()), float(flat.max())
    if hi - lo < 1e-15:
        return [np.full_like(r, 0.5) for r in raw]
    return [(r - lo) / (hi - lo) for r in raw]


def attention_record(bag: SlideBag, output: BagOutput, mode: str = "multiplicative") -> dict:
    """JSON-ready map of attention weights and saliency onto grid coords."""
    saliency = instance_saliency(output, mode)
    a_regions = output.region_weight_values()
    return {
        "slide_id": bag.slide_id,
        "label": bag.label,
        "saliency_mode": mode,
        "regions": [{
            "id": region.region_id,
            "coord": list(region.coord),
            "weight": float(a_regions[m]),
            "instances": [{
                "coord": list(region.instance_coords[j]),
                "weight": float(output.regions[m].weight_values()[j]),
                "saliency": float(saliency[m][j]),
            } for j in range(region.n_instances)],
        } for m, region in enumerate(bag.regions)],
    }


def save_attention_record(record: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
