"""Hierarchical text-guided attention pooling over embedding bags.

A slide is a bag of regions, each region a bag of instance embeddings.
Both levels use gated attention (w^T (tanh(V1 h) .* sigmoid(V2 h)))
with an additive refinement score derived from the cosine similarity
between the pooled item and a guidance text embedding: similarities
above a threshold are amplified by a fixed factor, small positive ones
pass through unchanged, non-positive ones contribute nothing. Passing
no guidance reduces both levels to plain gated attention pooling.

Pooling works on a `BagBatch`: the instance rows of all its slides form
one (n_instances, dim) matrix, and CSR offsets mark each region's rows
and each slide's regions. `region_encode` scores, normalises and pools
every region of the batch with one call of each segment primitive of
`tape`, and `wsi_encode` does the same for the region rows of every
slide, so one pass records about a dozen nodes however many slides it
holds. One training epoch tapes this pass once for all its slides.

`batch_bags` cuts a slide list, in order, into batches of at most
MAX_BATCH_ROWS instance rows and builds each batch only when it is
asked for, and `metrics.evaluate` releases each batch before it asks for
the next. The limit trades the fixed cost of a pass against memory: a
batch copies its rows into one matrix and the pooling temporaries grow
with it. On the benchmark's eval-bigbag inputs (40 test slides of ~284
instance rows of width 64; one round of evaluate, evaluate with
localization and a merged evaluate; 2-vCPU Xeon VM, NumPy 2.4):

    limit        batches   round time   tracemalloc peak of one evaluate
    512 rows     37        1.00x        0.65 MB
    1024 rows    14        0.70x        1.12 MB
    2048 rows    6         0.63x        2.50 MB
    one batch    1         0.85x        14.0 MB

1024 takes most of the gain of 2048 at under half its memory: with 2048
rows the benchmark's peak RSS rose 4-5%, against a 5% bound. Every
default k-shot training set and the 24-slide validation set fit in one
batch either way. Training, evaluation, localization, the gradient check
and the merge check all run this one path: plain arrays simply record
nothing.

Bag files are JSON. `save_bag` stores each region's embeddings as one
block, `{"dtype": "<f8", "shape": [n, dim], "base64": ...}`, the raw
little-endian float64 rows: bit-exact, half the size of decimal text, and
read without parsing a number per value (the default 96-slide dataset
loads in under half the time it took as number lists). `load_bag` still
reads the older form, one `"embedding"` number list per instance, which
is also the easy form to write by hand.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import tape as tp
from .errors import ConfigError, DataError, NumericError, strict_dumps

MAX_BATCH_ROWS = 1024  # instance rows pooled in one pass (see module docs)
ROW_DTYPE = "<f8"      # embeddings in bag files: little-endian float64


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
    seen_region, seen_id = set(), set()
    for m, r in enumerate(bag.regions):
        if tuple(r.coord) in seen_region:
            raise DataError(f"slide {bag.slide_id}: duplicate region coord {r.coord}")
        if r.region_id in seen_id:  # region ids name the attention records
            raise DataError(f"slide {bag.slide_id}: regions[{m}].id {r.region_id!r} "
                            f"repeats an earlier region's id")
        seen_region.add(tuple(r.coord))
        seen_id.add(r.region_id)
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
            if not ((r.mask == 0) | (r.mask == 1)).all():
                raise DataError(f"slide {bag.slide_id} region {r.region_id}: mask entries must be 0 or 1")
    if all((np.linalg.norm(r.embeddings, axis=1) < tp.EPS_NORM).all() for r in bag.regions):
        raise DataError(f"slide {bag.slide_id}: every instance embedding is zero "
                        f"(norm < {tp.EPS_NORM:g})")
    return bag


def _encode_rows(x: np.ndarray) -> dict:
    return {"dtype": ROW_DTYPE, "shape": list(x.shape),
            "base64": base64.b64encode(np.ascontiguousarray(x, dtype=ROW_DTYPE).tobytes()).decode()}


def _decode_rows(block: dict, n_rows: int) -> np.ndarray:
    if block["dtype"] != ROW_DTYPE:
        raise ValueError(f"embeddings dtype {block['dtype']!r} is not {ROW_DTYPE!r}")
    shape = tuple(int(s) for s in block["shape"])
    if len(shape) != 2 or shape[0] != n_rows:
        raise ValueError(f"embeddings shape {list(shape)} does not hold {n_rows} instance rows")
    data = base64.b64decode(block["base64"], validate=True)
    if len(data) != shape[0] * shape[1] * 8:
        raise ValueError(f"embeddings hold {len(data)} bytes, not {shape[0]} x {shape[1]} x 8")
    return np.frombuffer(data, dtype=ROW_DTYPE).reshape(shape).astype(np.float64)


_JSON_KINDS = {dict: "object", list: "array", int: "integer"}


def _json(value, kind: type, field: str):
    """`value` if it is a JSON value of `kind` (a bool is no integer);
    otherwise a ValueError that names `field`."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field} must be a JSON {_JSON_KINDS[kind]}, "
                     f"got {type(value).__name__} {value!r:.40}")


def load_bag(path: str | Path) -> SlideBag:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read bag file {path}: {exc}") from exc
    try:
        raw = _json(raw, dict, "the bag")
        label = _json(raw["label"], int, "label")
        regions = []
        for i, r in enumerate(_json(raw["regions"], list, "regions")):
            insts = _json(_json(r, dict, f"regions[{i}]")["instances"], list,
                          f"regions[{i}].instances")
            masks = [_json(inst, dict, f"regions[{i}].instances[{j}]").get("mask")
                     for j, inst in enumerate(insts)]
            has_mask = all(m is not None for m in masks)
            regions.append(Region(
                region_id=str(r.get("id", i)),
                coord=tuple(int(c) for c in r["coord"]),
                instance_coords=[tuple(int(c) for c in inst["coord"]) for inst in insts],
                embeddings=(_decode_rows(r["embeddings"], len(insts)) if "embeddings" in r else
                            np.asarray([inst["embedding"] for inst in insts], dtype=np.float64)),
                mask=np.asarray(masks, dtype=np.int64) if has_mask else None,
            ))
        bag = SlideBag(slide_id=str(raw["slide_id"]), label=label, regions=regions)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed bag file {path}: {exc}") from exc
    try:
        return validate_bag(bag)
    except DataError as exc:
        raise DataError(f"bag file {path}: {exc}") from exc


def save_bag(bag: SlideBag, path: str | Path) -> None:
    """Write `bag` with each region's embeddings as one base64 block (see
    the module docs); a non-finite value raises a NumericError naming the
    file before anything is written."""
    for r in bag.regions:
        if not np.isfinite(r.embeddings).all():
            raise NumericError(f"refusing to write {path}: slide {bag.slide_id} region "
                               f"{r.region_id} holds a non-finite embedding value")
    payload = {
        "slide_id": bag.slide_id,
        "label": bag.label,
        "regions": [{
            "id": r.region_id,
            "coord": list(r.coord),
            "instances": [{
                "coord": list(r.instance_coords[j]),
                **({"mask": int(r.mask[j])} if r.mask is not None else {}),
            } for j in range(r.n_instances)],
            "embeddings": _encode_rows(r.embeddings),
        } for r in bag.regions],
    }
    text = strict_dumps(payload, path)
    path = Path(path)
    # a fresh file rather than one truncated in place: some file systems
    # flush a rewritten file on close and stall a later delete of it
    path.unlink(missing_ok=True)
    path.write_text(text + "\n")


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


def refinement_score(h, guidance, cfg: RefinementConfig):
    """Piecewise score (`tape.refine_value`) of cos(h, guidance): a float
    for a vector h, one score per row for a matrix h. `guidance=None`
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
# batches of slides


@dataclass
class BagBatch:
    """Slides pooled in one pass. The instance rows of every region of every
    slide, slide by slide and region by region, form one matrix; CSR
    offsets mark where each region's rows and each slide's regions start."""

    bags: list[SlideBag]
    rows: np.ndarray            # (n_instances, dim)
    region_offsets: np.ndarray  # (n_regions + 1,): region r owns rows [o[r], o[r+1])
    slide_offsets: np.ndarray   # (n_slides + 1,): slide s owns regions [o[s], o[s+1])

    @classmethod
    def of(cls, bags: list[SlideBag]) -> "BagBatch":
        for bag in bags:
            if bag.n_regions < 1:
                raise DataError(f"slide {bag.slide_id} is empty")
            for r in bag.regions:
                if r.n_instances < 1:
                    raise DataError(f"slide {bag.slide_id} region {r.region_id} is empty")
        regions = [r for bag in bags for r in bag.regions]
        if not regions:
            raise DataError("cannot pool an empty set of slides")
        counts = [r.n_instances for r in regions]
        return cls(bags=list(bags),
                   rows=np.concatenate([r.embeddings for r in regions]),
                   region_offsets=np.concatenate([[0], np.cumsum(counts)]),
                   slide_offsets=np.concatenate([[0], np.cumsum([b.n_regions for b in bags])]))

    @property
    def n_instances(self) -> int:
        return self.rows.shape[0]

    @property
    def n_slides(self) -> int:
        return len(self.bags)

    @property
    def labels(self) -> np.ndarray:
        return np.array([b.label for b in self.bags], dtype=np.int64)

    def slide_row_offsets(self) -> np.ndarray:
        """(n_slides + 1,): slide s owns instance rows [o[s], o[s+1])."""
        return self.region_offsets[self.slide_offsets]


def batch_bags(bags: list[SlideBag]) -> Iterator[BagBatch]:
    """Yield consecutive runs of `bags`, in the given order, of at most
    MAX_BATCH_ROWS instance rows each; a slide larger than that forms a
    batch alone. Each batch is built only when it is asked for, so a
    caller that pools one batch at a time holds one batch's rows."""
    group, rows = [], 0
    for bag in bags:
        n = sum(r.n_instances for r in bag.regions)
        if group and rows + n > MAX_BATCH_ROWS:
            yield BagBatch.of(group)
            group, rows = [], 0
        group.append(bag)
        rows += n
    if group:
        yield BagBatch.of(group)


# ---------------------------------------------------------------------------
# encoders


@dataclass
class RegionOutput:
    embedding: object   # (n_regions, dim) value or node
    weights: object     # (n_instances,) softmax weights within each region
    scores: np.ndarray  # (n_instances,) refinement scores actually used

    def weight_values(self) -> np.ndarray:
        return np.asarray(tp.value(self.weights))


@dataclass
class BagScores:
    """Refinement scores captured from one forward pass over a batch,
    reusable as constants (the finite-difference oracle for
    detached-gradient mode)."""

    instances: np.ndarray  # (n_instances,)
    regions: np.ndarray    # (n_regions,)


@dataclass
class BagOutput:
    batch: BagBatch
    slide_embedding: object  # (n_slides, dim) value or node
    region_weights: object   # (n_regions,) softmax weights within each slide
    region: RegionOutput
    region_scores: np.ndarray

    def region_weight_values(self) -> np.ndarray:
        return np.asarray(tp.value(self.region_weights))

    def frozen_scores(self) -> BagScores:
        return BagScores(instances=self.region.scores, regions=self.region_scores)


def _attend(items, scores, offsets, w, m1, m2):
    """Gated attention over the rows of `items` within each segment of
    `offsets`, shifted by the refinement `scores`; returns (pooled rows,
    softmax weights)."""
    weights = tp.segment_softmax(tp.add(tp.gate_logits(items, w, m1, m2), scores), offsets)
    return tp.segment_pool(weights, items, offsets), weights


def region_encode(batch: BagBatch, guidance, params: AttentionParams, cfg: RefinementConfig,
                  frozen_scores: np.ndarray | None = None) -> RegionOutput:
    """Attention-pool the instances of every region of the batch into one
    region embedding each."""
    h = batch.rows
    s = refinement_score(h, guidance, cfg) if frozen_scores is None else frozen_scores
    emb, weights = _attend(h, s, batch.region_offsets, params.w_r, params.v1, params.v2)
    return RegionOutput(embedding=emb, weights=weights, scores=np.asarray(tp.value(s)))


def wsi_encode(batch: BagBatch, guidance, params: AttentionParams, cfg: RefinementConfig,
               frozen: BagScores | None = None) -> BagOutput:
    """Pool instances into region embeddings, then those into one embedding
    per slide, refining both attention levels with the same guidance."""
    region = region_encode(batch, guidance, params, cfg,
                           frozen_scores=None if frozen is None else frozen.instances)
    h = region.embedding
    s = refinement_score(h, guidance, cfg) if frozen is None else frozen.regions
    emb, weights = _attend(h, s, batch.slide_offsets, params.w, params.u1, params.u2)
    return BagOutput(batch=batch, slide_embedding=emb, region_weights=weights,
                     region=region, region_scores=np.asarray(tp.value(s)))


# ---------------------------------------------------------------------------
# saliency and export

SALIENCY_MODES = ("multiplicative", "instance-only")


def instance_saliency(output: BagOutput, mode: str = "multiplicative") -> np.ndarray:
    """Per-instance score in [0, 1] over the batch's rows, min-max
    normalized per slide.

    "multiplicative" combines region and instance attention; when every
    raw value of a slide ties (single instance, uniform attention) that
    whole slide gets 0.5."""
    if mode not in SALIENCY_MODES:
        raise ConfigError(f"saliency mode must be one of {SALIENCY_MODES}, got {mode!r}")
    batch = output.batch
    raw = output.region.weight_values()
    if mode == "multiplicative":
        raw = np.repeat(output.region_weight_values(), np.diff(batch.region_offsets)) * raw
    starts = batch.slide_row_offsets()
    sizes = np.diff(starts)
    lo = np.repeat(np.minimum.reduceat(raw, starts[:-1]), sizes)
    span = np.repeat(np.maximum.reduceat(raw, starts[:-1]), sizes) - lo
    tied = span < 1e-15
    return np.where(tied, 0.5, (raw - lo) / np.where(tied, 1.0, span))


def attention_records(output: BagOutput, mode: str = "multiplicative") -> list[dict]:
    """JSON-ready maps of attention weights and saliency onto grid coords,
    one per slide of the batch."""
    batch = output.batch
    saliency = instance_saliency(output, mode).tolist()
    inst = output.region.weight_values().tolist()
    a_regions = output.region_weight_values().tolist()
    starts = batch.region_offsets.tolist()
    records = []
    for s, bag in enumerate(batch.bags):
        first = int(batch.slide_offsets[s])
        records.append({
            "slide_id": bag.slide_id,
            "label": bag.label,
            "saliency_mode": mode,
            "regions": [{
                "id": region.region_id,
                "coord": list(region.coord),
                "weight": a_regions[first + m],
                "instances": [{
                    "coord": list(region.instance_coords[j]),
                    "weight": inst[starts[first + m] + j],
                    "saliency": saliency[starts[first + m] + j],
                } for j in range(region.n_instances)],
            } for m, region in enumerate(bag.regions)],
        })
    return records


def save_attention_record(record: dict, path: str | Path) -> None:
    text = strict_dumps(record, path, indent=1)
    Path(path).write_text(text + "\n")
