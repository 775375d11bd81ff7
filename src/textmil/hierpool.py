"""Hierarchical text-guided attention pooling over embedding bags.

A slide is a bag of regions, each region a bag of instance embeddings.
Both levels use gated attention (w^T (tanh(V1 h) .* sigmoid(V2 h)))
with an additive refinement score derived from the cosine similarity
between the pooled item and a guidance text embedding: similarities
above a threshold are amplified by a fixed factor, small positive ones
pass through unchanged, non-positive ones contribute nothing. Passing
no guidance reduces both levels to plain gated attention pooling. Its
settings are the config's `refinement` section, `config.RefinementConfig`.

Pooling works on a `BagBatch`: the instance rows of all its slides form
one (n_instances, dim) matrix, and CSR offsets mark each region's rows
and each slide's regions. The batch checks those offsets once, when it
is built, as two `tape.Segments`, and computes the norms of its
instance rows once too; the region level's refinement takes those
norms. A batch holds no parameter state, so a fit reuses its batches in
every epoch and each pass repeats only the arithmetic that depends on
the parameters. `region_encode` scores, normalises and pools
every region of the batch with one call of each segment primitive of
`tape`, and `wsi_encode` does the same for the region rows of every
slide, so one pass records about a dozen nodes however many slides it
holds. Each level yields one `Pooled` record (the pooled rows, and per
item its attention weight and refinement score), and a pass is the
`BagOutput` of both. One training epoch pools all its slides as one
batch and tapes this pass once.

`batch_bags` cuts a slide list, in order, into batches of at most
MAX_BATCH_ROWS instance rows and builds each batch only when it is
asked for, and `metrics.evaluate` releases each batch before it asks for
the next. The limit trades the fixed cost of a pass against memory: a
batch copies its rows into one matrix and the pooling temporaries grow
with it. Measured at commit 1d2010b on the benchmark's eval-bigbag
inputs (40 test slides of ~284 instance rows of width 64; one round of
evaluate, evaluate with localization and a merged evaluate; 2-vCPU Xeon
VM, NumPy 2.4):

    limit        batches   round time   tracemalloc peak of one evaluate
    512 rows     37        1.00x        0.65 MB
    1024 rows    14        0.70x        1.12 MB
    2048 rows    6         0.63x        2.50 MB
    one batch    1         0.85x        14.0 MB

1024 takes most of the gain of 2048 at under half its memory: with 2048
rows the benchmark's peak RSS rose 4-5%, against a 5% bound. Measured
again at 73c0686, 2048 rows were slower end to end as well: eval-bigbag
op_ref 71.5-75.7 against 68.1-72.0 over 6 process pairs (seeds 1-6,
8 s each), at 2.4-3.3 MB more peak RSS. The 24-slide default
validation set fits in one batch either way. Training does not cut: its
slides stay on the epoch's tape until the backward pass whatever the
batching, and the benchmark's k-shot training sets hold 23-231 rows.
Training, evaluation, localization, the gradient check and the merge
check all run this one pass: plain arrays simply record nothing.

Bag files are JSON. `save_bag` stores each region's embeddings as one
block (`errors.Rows.encode`), `{"dtype": "<f8", "shape": [n, dim],
"base64": ...}`, the raw little-endian float64 rows: bit-exact, half the size of
decimal text, and read without parsing a number per value (the default
96-slide dataset loads in under half the time it took as number lists).
`load_bag` still reads the older form, one `"embedding"` number list per
instance, which is also the easy form to write by hand. It reads every
field through `errors.read`, which checks and never converts: the coords
and the masks of all the bag's instances are read as one array each
(`errors.column`), and a bad one is named, as in
`regions[0].instances[1].mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterator

import numpy as np

from . import tape as tp
from .config import GRADIENT_MODES, SALIENCY_MODES, RefinementConfig  # noqa: F401 (re-exported)
from .errors import ID, ConfigError, DataError, Rows, column, get, json_input, read, write_json

MAX_BATCH_ROWS = 1024  # instance rows pooled in one pass (see module docs)


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


def check_slide_id(sid: str, field: str, error: type = ValueError) -> str:
    """`sid` if it is a single path component, as a slide id must be: it
    names the slide's bag and attention files. Otherwise an `error`
    naming `field`."""
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise error(f"{field} {sid!r} is not a single path component: it is empty, "
                    f"'.' or '..', or holds '/', '\\' or NUL")
    return sid


def validate_bag(bag: SlideBag) -> SlideBag:
    check_slide_id(bag.slide_id, "slide_id", DataError)
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
        if len(r.instance_coords) != r.n_instances:
            raise DataError(f"slide {bag.slide_id} region {r.region_id}: coords do not align with instances")
        if len(set(map(tuple, r.instance_coords))) != r.n_instances:
            raise DataError(f"slide {bag.slide_id} region {r.region_id}: duplicate instance coords")
        if r.mask is not None:
            if r.mask.shape != (r.n_instances,):
                raise DataError(f"slide {bag.slide_id} region {r.region_id}: mask does not align with instances")
            if not set(r.mask.tolist()) <= {0, 1}:
                raise DataError(f"slide {bag.slide_id} region {r.region_id}: mask entries must be 0 or 1")
    rows = np.concatenate([r.embeddings for r in bag.regions])  # one pass over the slide
    if not np.isfinite(rows).all():
        bad = next(r for r in bag.regions if not np.isfinite(r.embeddings).all())
        raise DataError(f"slide {bag.slide_id} region {bad.region_id}: non-finite embedding values")
    norms = tp.safe_row_norms(rows)  # inf where the pooling's squares would overflow
    huge = np.isinf(norms)
    if huge.any():
        ends = np.cumsum([r.n_instances for r in bag.regions])
        bad = bag.regions[int(np.searchsorted(ends, np.argmax(huge), side="right"))]
        raise DataError(f"slide {bag.slide_id} region {bad.region_id}: an instance embedding's "
                        f"norm is above {tp.LARGEST_NORM:.4g}, so its square overflows float64")
    if (norms < tp.EPS_NORM).all():
        raise DataError(f"slide {bag.slide_id}: every instance embedding is zero "
                        f"(norm < {tp.EPS_NORM:g})")
    return bag


def load_bag(path: str | Path) -> SlideBag:
    """The bag file at `path`, every field read by `errors.read`: coords
    are pairs of JSON integers, and either every instance of the bag has
    a 0/1 `mask` or none does."""
    with json_input(path, "bag file") as raw:
        raw = read(raw, dict, "the bag")
        records = get(raw, "regions", list)
        region_coords = column([records], "coord", (int, 2), "regions").tolist()
        groups = [get(r, "instances", list, f"regions[{i}]") for i, r in enumerate(records)]
        coords = column(groups, "coord", (int, 2), "regions[{}].instances").tolist()
        masked = "mask" in next(chain.from_iterable(groups))
        stray = [] if masked else [f"regions[{i}].instances[{j}]" for i, insts in enumerate(groups)
                                   for j, inst in enumerate(insts) if "mask" in inst]
        if stray:
            raise ValueError(f"{stray[0]}.mask is given, but the bag's first instance has none")
        masks = column(groups, "mask", int, "regions[{}].instances") if masked else None
        ends = list(accumulate(map(len, groups)))
        regions = [Region(
            region_id=read(r.get("id", i), ID, f"regions[{i}].id"),
            coord=tuple(region_coords[i]),
            instance_coords=list(map(tuple, coords[lo:hi])),
            embeddings=(read(r["embeddings"], Rows(hi - lo), f"regions[{i}].embeddings")
                        if "embeddings" in r else
                        column([insts], "embedding", (float, None), f"regions[{i}].instances")),
            mask=None if masks is None else masks[lo:hi],
        ) for i, (r, insts, lo, hi) in enumerate(zip(records, groups, [0, *ends], ends))]
        bag = SlideBag(slide_id=get(raw, "slide_id", ID), label=get(raw, "label", int),
                       regions=regions)
    try:
        return validate_bag(bag)
    except DataError as exc:
        raise DataError(f"bag file {path}: {exc}") from exc


def save_bag(bag: SlideBag, path: str | Path) -> None:
    """Write `bag` with each region's embeddings as one base64 block (see
    the module docs); a non-finite value raises a NumericError naming the
    file before anything is written."""
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
            "embeddings": r.embeddings,
        } for r in bag.regions],
    }
    write_json(path, payload)


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


# ---------------------------------------------------------------------------
# refinement score


def refinement_score(h, guidance, cfg: RefinementConfig, norms: np.ndarray | None = None):
    """Piecewise score (`tape.refine_value`) of cos(h_i, guidance) for
    each row h_i of the matrix h and the guidance row (a (1, dim) matrix,
    `textenc.refinement_embedding`). `guidance=None` (degenerate or disabled
    guidance) scores zero, as does a near-zero-norm row. Within a branch
    the gradient is linear in the cosine; in "detached" mode the score is
    a constant with respect to everything. `norms` are the norms of the
    rows of a constant h, computed once (`BagBatch.norms`)."""
    if guidance is None:
        hv = tp.value(h)
        if np.ndim(hv) != 2:
            raise ValueError(f"h must be a 2-d array of rows, got shape {np.shape(hv)}")
        return np.zeros(hv.shape[0])
    if cfg.gradient == "detached":
        h, guidance = tp.value(h), tp.value(guidance)
    return tp.refine_scores(h, guidance, cfg.factor, cfg.threshold, norms)


# ---------------------------------------------------------------------------
# batches of slides


@dataclass
class BagBatch:
    """Slides pooled in one pass. The instance rows of every region of every
    slide, slide by slide and region by region, form one matrix; CSR
    segments mark where each region's rows and each slide's regions start.
    Everything here is a constant of the slides, checked or computed once
    when the batch is built, so a pass repeats only the arithmetic that
    depends on the parameters."""

    bags: list[SlideBag]
    rows: np.ndarray       # (n_instances, dim)
    norms: np.ndarray      # (n_instances,): the norm of each row
    regions: tp.Segments   # region r owns rows [o[r], o[r+1])
    slides: tp.Segments    # slide s owns regions [o[s], o[s+1])

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
        rows = np.concatenate([r.embeddings for r in regions])
        counts = [r.n_instances for r in regions]
        return cls(bags=list(bags), rows=rows, norms=np.linalg.norm(rows, axis=1),
                   regions=tp.Segments(np.concatenate([[0], np.cumsum(counts)]), len(rows)),
                   slides=tp.Segments(np.concatenate([[0], np.cumsum([b.n_regions for b in bags])]),
                                      len(regions)))

    @property
    def n_instances(self) -> int:
        return self.rows.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return np.array([b.label for b in self.bags], dtype=np.int64)

    def slide_row_offsets(self) -> np.ndarray:
        """(n_slides + 1,): slide s owns instance rows [o[s], o[s+1])."""
        return self.regions.offsets[self.slides.offsets]


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
class Pooled:
    """One attention level of a pass: the pooled row of each segment, and
    per item its softmax weight within its segment and the refinement
    score actually used."""

    embedding: object    # (n_segments, dim) value or node
    weights: np.ndarray  # (n_items,)
    scores: np.ndarray   # (n_items,)


@dataclass
class BagOutput:
    """A pass over a batch: instances pooled into regions, then regions
    into slides."""

    batch: BagBatch
    region: Pooled
    slide: Pooled


def _attend(items, scores, segments: tp.Segments, w, m1, m2) -> Pooled:
    """Gated attention over the rows of `items` within each of `segments`,
    shifted by the refinement `scores`."""
    weights = tp.segment_softmax(tp.add(tp.gate_logits(items, w, m1, m2), scores), segments)
    return Pooled(embedding=tp.segment_pool(weights, items, segments),
                  weights=np.asarray(tp.value(weights)), scores=np.asarray(tp.value(scores)))


def region_encode(batch: BagBatch, guidance, params: AttentionParams, cfg: RefinementConfig,
                  frozen_scores: np.ndarray | None = None) -> Pooled:
    """Attention-pool the instances of every region of the batch into one
    region embedding each."""
    h = batch.rows
    s = refinement_score(h, guidance, cfg, batch.norms) if frozen_scores is None else frozen_scores
    return _attend(h, s, batch.regions, params.w_r, params.v1, params.v2)


def wsi_encode(batch: BagBatch, guidance, params: AttentionParams, cfg: RefinementConfig,
               frozen: BagOutput | None = None) -> BagOutput:
    """Pool instances into region embeddings, then those into one embedding
    per slide, refining both attention levels with the same guidance.
    `frozen`, an earlier pass over the same batch, supplies both levels'
    refinement scores as constants instead (the finite-difference oracle
    of detached-gradient mode)."""
    region = region_encode(batch, guidance, params, cfg,
                           frozen_scores=None if frozen is None else frozen.region.scores)
    h = region.embedding
    s = refinement_score(h, guidance, cfg) if frozen is None else frozen.slide.scores
    return BagOutput(batch=batch, region=region,
                     slide=_attend(h, s, batch.slides, params.w, params.u1, params.u2))


# ---------------------------------------------------------------------------
# saliency and export


def instance_saliency(output: BagOutput, mode: str = "multiplicative") -> np.ndarray:
    """Per-instance score in [0, 1] over the batch's rows, min-max
    normalized per slide.

    "multiplicative" combines region and instance attention; when every
    raw value of a slide ties (single instance, uniform attention) that
    whole slide gets 0.5."""
    if mode not in SALIENCY_MODES:
        raise ConfigError(f"saliency mode must be one of {SALIENCY_MODES}, got {mode!r}")
    batch = output.batch
    raw = output.region.weights
    if mode == "multiplicative":
        raw = np.repeat(output.slide.weights, batch.regions.counts) * raw
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
    inst = output.region.weights.tolist()
    a_regions = output.slide.weights.tolist()
    starts = batch.regions.offsets.tolist()
    records = []
    for s, bag in enumerate(batch.bags):
        first = int(batch.slides.offsets[s])
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
