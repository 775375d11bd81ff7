"""Classifier bundle: frozen encoder + adapters + attention + prompts.

The trainable state is exactly the adapter vectors of the model's sites
(which sit on the trailing blocks only) plus the two attention-pooling
parameter sets: one ordered map of named arrays (`TrainableLayout`),
flattened into one vector in that order. Checkpoints are plain JSON and
normally reference the backbone by seed; they list an identity record
for every block without an adapter, which loading drops again. A merged
checkpoint stores the folded backbone weights explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tape as tp
from .config import EncoderConfig, RunConfig, config_from_dict
from .errors import ConfigError, DataError, strict_dumps
from .hierpool import AttentionParams, BagBatch, BagScores, SlideBag, init_attention, wsi_encode
from .ssf import SITE_KINDS, SsfParams, SsfSite, build_sites, identity_params
from .textenc import (EncoderBlock, PromptSet, TextEncoderStack, build_prompt, build_stack,
                      encode, encode_prefix, finite_array, merge_reparam, prompts_from_dict,
                      prompts_to_dict, refinement_embedding)


def class_probabilities(slide_embeddings, class_embeddings, temperature: float):
    """Softmax over the cosine similarities between each slide embedding (a
    row of `slide_embeddings`, or the one vector) and each class text
    embedding, scaled by the temperature: one row of class probabilities
    per slide."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    cosines = tp.cosine(slide_embeddings, tp.rows(class_embeddings))
    return tp.softmax(tp.scale(cosines, 1.0 / temperature))


@dataclass
class SlideClassifier:
    stack: TextEncoderStack
    sites: list[SsfSite]
    attention: AttentionParams
    prompts: PromptSet
    config: RunConfig
    merged: bool = False
    # (key, objects the key's ids refer to, per-class prefix activations)
    _prefix: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tumor_index(self) -> int | None:
        if self.prompts.n_classes == 2 and self.prompts.tumor_class is not None:
            return self.prompts.tumor_class
        return None

    def class_embeddings(self, sites=None) -> list:
        """One text embedding per class prompt; `sites` (default: the
        model's) may hold tape nodes. Only the blocks from the first site
        onward run here; the bare blocks before it come from
        `frozen_prefix`."""
        use = self.sites if sites is None else sites
        boundary, prefixes = self.frozen_prefix(use)
        return [encode(self.stack, x, use, start=boundary) for x in prefixes]

    def frozen_prefix(self, sites) -> tuple[int, list[np.ndarray]]:
        """(boundary, each class prompt's token activations after blocks
        1..boundary), where the boundary is the block before the first of
        `sites` (the whole stack when there is none). Computed once and
        reused while the stack and the prompt tokens stay the same objects
        and the boundary does not move; new adapter or attention arrays
        (`TrainableLayout.apply`) do not invalidate it."""
        boundary = min((s.block for s in sites), default=self.stack.n_blocks + 1) - 1
        objs = (self.stack,
                *(t for c in self.prompts.classes for t in (c.region_tokens, c.slide_tokens)))
        key = (boundary, tuple(map(id, objs)))
        if self._prefix is None or self._prefix[0] != key:
            prefixes = [encode_prefix(self.stack, build_prompt(c), boundary)
                        for c in self.prompts.classes]
            self._prefix = (key, objs, prefixes)
        return boundary, self._prefix[2]

    def guidance(self, class_embeddings):
        if not self.config.refinement.enabled:
            return None
        return refinement_embedding(class_embeddings, self.tumor_index)

    def forward(self, batch: BagBatch, class_embs=None, guidance=None, attention=None,
                frozen: BagScores | None = None):
        """(class probabilities, one row per slide, and the pooling trace)
        of a batch under the given class embeddings and guidance (by
        default the model's own), with the model's attention parameters
        unless `attention` holds tape nodes; `frozen` holds refinement
        scores to use as constants."""
        if class_embs is None:
            class_embs = self.class_embeddings()
            guidance = self.guidance(class_embs)
        attn = self.attention if attention is None else attention
        out = wsi_encode(batch, guidance, attn, self.config.refinement, frozen=frozen)
        probs = class_probabilities(out.slide_embedding, class_embs,
                                    self.config.train.temperature)
        return probs, out

    def check_bags(self, bags: list[SlideBag]) -> list[SlideBag]:
        """`bags` unchanged, once each embedding width matches the encoder's
        and each label names one of the model's classes."""
        n = self.prompts.n_classes
        for bag in bags:
            if bag.dim != self.stack.dim:
                raise DataError(f"slide {bag.slide_id} has embedding dim {bag.dim}; "
                                f"the model expects {self.stack.dim}")
            if not 0 <= bag.label < n:
                raise DataError(f"slide {bag.slide_id} has label {bag.label}; "
                                f"the model has classes 0..{n - 1}")
        return bags


def _derive_seeds(seed: int) -> tuple[int, int]:
    rng = np.random.default_rng(seed)
    return int(rng.integers(2 ** 62)), int(rng.integers(2 ** 62))


def build_model(config: RunConfig, prompts: PromptSet) -> SlideClassifier:
    enc = config.encoder
    if prompts.n_classes < 2:
        raise DataError("classification needs at least 2 class prompts")
    stack = build_stack(enc.backbone_seed, enc.blocks, enc.dim, enc.mlp_hidden)
    ssf_seed, attn_seed = _derive_seeds(config.train.seed)
    sites = build_sites(ssf_seed, enc.blocks, config.train.depth, enc.dim,
                        config.train.ssf_init_std)
    attention = init_attention(attn_seed, enc.attn_hidden, enc.dim)
    return SlideClassifier(stack=stack, sites=sites, attention=attention,
                           prompts=prompts, config=config)


# ---------------------------------------------------------------------------
# trainable-vector layout


class TrainableLayout:
    """The model's trainable arrays as one ordered map of named arrays,
    flattened into one vector in that order: `ssf.<block>.<kind>.gamma`
    and `.beta` for each adapter site in the model's order, then
    `attn.<field>` for w_r, v1, v2, w, u1, u2 (C order)."""

    def __init__(self, model: SlideClassifier):
        self._model = model
        self.shapes = {name: a.shape for name, a in self.arrays().items()}
        self._offsets = np.cumsum([0, *(int(np.prod(s)) for s in self.shapes.values())]).tolist()
        self.size = self._offsets[-1]

    def arrays(self) -> dict[str, np.ndarray]:
        """The model's current trainable arrays by name."""
        attn = {f"attn.{f}": getattr(self._model.attention, f) for f in AttentionParams.FIELDS}
        return {f"ssf.{s.block}.{s.kind}.{v}": getattr(s.params, v)
                for s in self._model.sites for v in ("gamma", "beta")} | attn

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """`theta` cut into the named arrays (views into it)."""
        return {name: theta[lo:hi].reshape(shape) for (name, shape), lo, hi
                in zip(self.shapes.items(), self._offsets, self._offsets[1:])}

    def assemble(self, named: dict) -> tuple[list[SsfSite], AttentionParams]:
        """(sites, attention) of the model's structure holding the named
        values, which may be arrays or tape nodes."""
        sites = [SsfSite(s.block, s.kind, SsfParams(*(named[f"ssf.{s.block}.{s.kind}.{v}"]
                                                      for v in ("gamma", "beta"))))
                 for s in self._model.sites]
        return sites, AttentionParams(*(named[f"attn.{f}"] for f in AttentionParams.FIELDS))

    def pack(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays().values()])

    def apply(self, theta: np.ndarray) -> None:
        """Make a copy of a flat vector the model's trainable arrays."""
        if theta.shape != (self.size,):
            raise ValueError(f"theta must have shape ({self.size},), got {theta.shape}")
        self._model.sites, self._model.attention = self.assemble(self.split(theta.copy()))

    def bind(self, theta: np.ndarray) -> tuple[tp.Tape, dict[str, tp.Node]]:
        """A fresh tape and its leaf nodes for one training step, by name."""
        tape = tp.Tape()
        return tape, {name: tape.param(a) for name, a in self.split(theta).items()}

    def flatten_grads(self, grads: tp.Gradients, leaves: dict[str, tp.Node]) -> np.ndarray:
        return np.concatenate([np.ravel(grads[n]) for n in leaves.values()])


# ---------------------------------------------------------------------------
# checkpoints


def _adapter_records(model: SlideClassifier) -> list[dict]:
    """Format-1 adapter records by block then kind: every site of an
    unmerged model's stack, those without an adapter as frozen identity
    records, or a merged model's own sites (none after `merge_model`)."""
    adapters = {(s.block, s.kind): s.params for s in model.sites}
    keys = adapters if model.merged else [(b, k) for b in range(1, model.stack.n_blocks + 1)
                                          for k in SITE_KINDS]
    identity = identity_params(model.stack.dim)
    return [{"block": b, "kind": k, "trainable": (b, k) in adapters,
             "gamma": p.gamma.tolist(), "beta": p.beta.tolist()}
            for b, k in keys for p in [adapters.get((b, k), identity)]]


def save_checkpoint(model: SlideClassifier, path: str | Path, history: list | None = None,
                    split: dict | None = None) -> None:
    if model.merged or model.stack.seed is None:
        backbone = {"kind": "explicit",
                    "blocks": [{"ln_gain": b.ln_gain.tolist(), "ln_bias": b.ln_bias.tolist(),
                                "w1": b.w1.tolist(), "b1": b.b1.tolist(),
                                "w2": b.w2.tolist(), "b2": b.b2.tolist()}
                               for b in model.stack.blocks],
                    "proj": model.stack.proj.tolist(), "dim": model.stack.dim}
    else:
        backbone = {"kind": "seeded", "seed": model.stack.seed}
    payload = {
        "format": 1,
        "merged": model.merged,
        "config": model.config.to_dict(),
        "backbone": backbone,
        "ssf": _adapter_records(model),
        "attention": {f: getattr(model.attention, f).tolist() for f in AttentionParams.FIELDS},
        "prompts": prompts_to_dict(model.prompts),
        "history": history or [],
        "split": split,
    }
    text = strict_dumps(payload, path)
    Path(path).write_text(text + "\n")


def _shaped(value, field: str, shape: tuple) -> np.ndarray:
    arr = finite_array(value, field)
    if arr.shape != shape:
        raise ValueError(f"{field} must have shape {shape}, got {arr.shape}")
    return arr


def _load_sites(records, n_blocks: int, dim: int) -> list[SsfSite]:
    """The adapter sites of format-1 `records`, frozen identity records
    dropped; a bad record raises a ValueError that names its field."""
    if not isinstance(records, list):
        raise ValueError("ssf must be a list of adapter records")
    sites, seen = [], set()
    for i, r in enumerate(records):
        block, kind, trainable = r["block"], r["kind"], r["trainable"]
        if type(block) is not int or not 1 <= block <= n_blocks:
            raise ValueError(f"ssf[{i}].block must be an integer in 1..{n_blocks}, got {block!r}")
        if kind not in SITE_KINDS:
            raise ValueError(f"ssf[{i}].kind must be one of {SITE_KINDS}, got {kind!r}")
        if (block, kind) in seen:
            raise ValueError(f"ssf[{i}] repeats the {kind} site of block {block}")
        seen.add((block, kind))
        if not isinstance(trainable, bool):
            raise ValueError(f"ssf[{i}].trainable must be true or false, got {trainable!r}")
        params = SsfParams(_shaped(r["gamma"], f"ssf[{i}].gamma", (dim,)),
                           _shaped(r["beta"], f"ssf[{i}].beta", (dim,)))
        if trainable:
            sites.append(SsfSite(block, kind, params))
        elif (params.gamma != 1.0).any() or params.beta.any():
            raise ValueError(f"ssf[{i}] is frozen but not an identity adapter")
    return sites


def _load_backbone(bb: dict, enc: EncoderConfig) -> TextEncoderStack:
    """The explicit backbone of a merged checkpoint, checked against the
    config's encoder; a bad field raises a ValueError that names it."""
    d, h = enc.dim, enc.mlp_hidden
    shapes = {"ln_gain": (d,), "ln_bias": (d,), "w1": (h, d), "b1": (h,), "w2": (d, h),
              "b2": (d,)}
    if type(bb["dim"]) is not int or bb["dim"] != d:
        raise ValueError(f"backbone.dim must be the encoder dim {d}, got {bb['dim']!r}")
    records = bb["blocks"]
    if not isinstance(records, list) or len(records) != enc.blocks:
        n = len(records) if isinstance(records, list) else type(records).__name__
        raise ValueError(f"backbone.blocks must list the encoder's {enc.blocks} blocks, got {n}")
    blocks = []
    for i, b in enumerate(records):
        if not isinstance(b, dict) or set(b) != set(shapes):
            raise ValueError(f"backbone.blocks[{i}] must hold exactly {sorted(shapes)}")
        blocks.append(EncoderBlock(**{k: _shaped(b[k], f"backbone.blocks[{i}].{k}", shape)
                                      for k, shape in shapes.items()}))
    return TextEncoderStack(blocks=blocks, proj=_shaped(bb["proj"], "backbone.proj", (d, d)),
                            dim=d, seed=None)


def load_checkpoint(path: str | Path):
    """Returns (model, history, split)."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        config = config_from_dict(raw["config"])
        enc = config.encoder
        bb = raw["backbone"]
        if bb["kind"] not in ("seeded", "explicit"):
            raise ValueError(f"backbone.kind must be 'seeded' or 'explicit', got {bb['kind']!r}")
        if bb["kind"] == "seeded":
            seed = bb["seed"]
            if type(seed) is not int or seed < 0:
                raise ValueError(f"backbone.seed must be a non-negative integer, got {seed!r}")
            stack = build_stack(seed, enc.blocks, enc.dim, enc.mlp_hidden)
        else:
            stack = _load_backbone(bb, enc)
        sites = _load_sites(raw["ssf"], stack.n_blocks, stack.dim)
        attention = AttentionParams(*(
            _shaped(raw["attention"][f], f"attention.{f}",
                    (enc.attn_hidden,) if f in ("w_r", "w") else (enc.attn_hidden, enc.dim))
            for f in AttentionParams.FIELDS))
        prompts = prompts_from_dict(raw["prompts"])
        if prompts.n_classes < 2:
            raise ValueError(f"prompts.classes must hold at least 2 classes, "
                             f"got {prompts.n_classes}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {exc}") from exc
    model = SlideClassifier(stack=stack, sites=sites, attention=attention,
                            prompts=prompts, config=config, merged=bool(raw.get("merged")))
    return model, raw.get("history", []), raw.get("split")


def merge_model(model: SlideClassifier) -> SlideClassifier:
    """Fold all adapters into the backbone; the result has no adapter
    parameters and computes the same slide probabilities."""
    merged_stack = merge_reparam(model.stack, model.sites)
    return SlideClassifier(stack=merged_stack, sites=[], attention=model.attention.copy(),
                           prompts=model.prompts, config=model.config, merged=True)
