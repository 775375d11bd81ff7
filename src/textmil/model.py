"""Classifier bundle: frozen encoder + adapters + attention + prompts.

The trainable state is exactly the adapter vectors of the model's sites
(`SsfParams` by (block, kind), on the trailing blocks only) plus the two
attention-pooling parameter sets: one ordered map of named arrays
(`TrainableLayout`), flattened into one vector in that order. At other
values of them (tape nodes, perturbed arrays) the model is a copy that
shares its frozen-prefix cache, `TrainableLayout.model`. The cache holds
the class prompts' token rows after the bare blocks, stacked, with
their segments; `SlideClassifier.text` continues from it to the
(classes, dim) class matrix that `class_probabilities` compares every
slide against, and to the refinement guidance row.

Checkpoints are JSON in format 2: every array (adapter vectors,
attention weights, prompt tokens and a merged backbone) is one base64
block (`errors.Rows.encode`), bit-exact and about half the size of
decimal text. A checkpoint normally references the backbone by seed and
lists one record per adapter site; a merged one stores the folded
backbone weights explicitly and has no adapter records.
`load_checkpoint` also reads format 1, which stores arrays as number
lists and lists a frozen identity record for every block without an
adapter (dropped on loading), so a round trip through it re-saves a
format-1 file as format 2 with every array bit for bit the same. It
reads every field, its config section and training history included,
through `errors.read` and names a bad one (such as `ssf[2].gamma` or
`history[0].epoch`), and holds each adapter, attention and backbone
array to the bag files' magnitude rule (`textenc.check_norms`); it keeps
only the checks against the config and between records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tape as tp
from .config import EncoderConfig, RunConfig, config_from_dict
from .errors import ConfigError, DataError, get, json_input, read, write_json
from .hierpool import AttentionParams, BagBatch, BagOutput, SlideBag, init_attention, wsi_encode
from .ssf import SITE_KINDS, SsfParams, build_sites
from .textenc import (EncoderBlock, PromptSet, TextEncoderStack, build_prompt, build_stack,
                      check_norms, encode, encode_prefix, merge_reparam, prompts_from_dict,
                      prompts_to_dict, refinement_embedding)


def class_probabilities(slide_embeddings, class_embeddings, temperature: float):
    """Softmax over the cosine similarities between each slide embedding (a
    row of `slide_embeddings`) and each class text embedding (a row of
    the class matrix `class_embeddings`), scaled by the temperature: one
    row of class probabilities per slide."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    cosines = tp.cosine(slide_embeddings, class_embeddings)
    return tp.softmax(tp.scale(cosines, 1.0 / temperature))


@dataclass
class SlideClassifier:
    stack: TextEncoderStack
    sites: dict[tuple[int, str], SsfParams]  # by (block, kind), in block then kind order
    attention: AttentionParams
    prompts: PromptSet
    config: RunConfig
    merged: bool = False
    row_by_row: bool = False  # run the text encoder one token row at a time (`encode`)
    # key -> (objects the key's ids refer to, stacked prefix, its segments); copies share it
    prefix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def text(self) -> tuple:
        """(the class matrix, whose rows are the text embeddings of the
        class prompts, and the refinement guidance row or None). Only the
        blocks from the first site onward run here; the bare blocks before
        it come from `frozen_prefix`."""
        boundary, prefix, prompts = self.frozen_prefix()
        embs = encode(self.stack, prefix, prompts, self.sites, start=boundary,
                      row_by_row=self.row_by_row)
        return embs, (refinement_embedding(embs, self.prompts.tumor_class)
                      if self.config.refinement.enabled else None)

    def frozen_prefix(self) -> tuple[int, np.ndarray, tp.Segments]:
        """(boundary, the token activations of every class prompt after
        blocks 1..boundary, stacked prompt by prompt, and their segments):
        the bare blocks before the first site, or all of them. Computed and
        laid out once per boundary, stack and token arrays, and reused by
        new adapter or attention arrays and by copies (`TrainableLayout`)."""
        boundary = min((block for block, _ in self.sites), default=self.stack.n_blocks + 1) - 1
        objs = (self.stack,
                *(t for c in self.prompts.classes for t in (c.region_tokens, c.slide_tokens)))
        key = (boundary, tuple(map(id, objs)))
        if key not in self.prefix_cache:
            tokens = [build_prompt(c) for c in self.prompts.classes]
            rows = np.concatenate(tokens)
            self.prefix_cache[key] = (objs, encode_prefix(self.stack, rows, boundary),
                                      tp.Segments(np.cumsum([0, *map(len, tokens)]), len(rows)))
        return boundary, *self.prefix_cache[key][1:]

    def forward(self, batch: BagBatch, text: tuple | None = None, frozen: BagOutput | None = None):
        """(class probabilities, one row per slide, and the pooling trace) of
        a batch under `text` (default: the model's own); an earlier pass
        `frozen` over the batch supplies its refinement scores as constants."""
        embs, guidance = self.text() if text is None else text
        out = wsi_encode(batch, guidance, self.attention, self.config.refinement, frozen=frozen)
        return class_probabilities(out.slide.embedding, embs, self.config.train.temperature), out

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


def _check_width(prompts: PromptSet, dim: int, error: type) -> None:
    """Raise `error` unless the prompt tokens are `dim` wide, the encoder's width."""
    for c in prompts.classes:
        if (width := c.region_tokens.shape[1]) != dim:
            raise error(f"the tokens of prompts.classes[{c.class_id}] are {width} wide; "
                        f"encoder.dim is {dim}")


def build_model(config: RunConfig, prompts: PromptSet) -> SlideClassifier:
    enc = config.encoder
    _check_width(prompts, enc.dim, DataError)
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
    and `.beta` for each (block, kind) key of the model's sites, in the
    map's order, then `attn.<field>` for w_r, v1, v2, w, u1, u2 (C order)."""

    def __init__(self, model: SlideClassifier):
        self._model = model
        self.shapes = {name: a.shape for name, a in self.arrays().items()}
        self._offsets = np.cumsum([0, *(int(np.prod(s)) for s in self.shapes.values())]).tolist()
        self.size = self._offsets[-1]

    def arrays(self) -> dict[str, np.ndarray]:
        """The model's current trainable arrays by name."""
        attn = {f"attn.{f}": getattr(self._model.attention, f) for f in AttentionParams.FIELDS}
        return {f"ssf.{block}.{kind}.{v}": getattr(p, v)
                for (block, kind), p in self._model.sites.items() for v in ("gamma", "beta")} | attn

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """`theta` cut into the named arrays (views into it)."""
        return {name: theta[lo:hi].reshape(shape) for (name, shape), lo, hi
                in zip(self.shapes.items(), self._offsets, self._offsets[1:])}

    def model(self, named: dict) -> SlideClassifier:
        """A copy of the model holding the named values, arrays or tape
        nodes, as its sites and attention."""
        sites = {(block, kind): SsfParams(named[f"ssf.{block}.{kind}.gamma"],
                                          named[f"ssf.{block}.{kind}.beta"])
                 for block, kind in self._model.sites}
        attn = AttentionParams(*(named[f"attn.{f}"] for f in AttentionParams.FIELDS))
        return replace(self._model, sites=sites, attention=attn)

    def pack(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays().values()])

    def apply(self, theta: np.ndarray) -> None:
        """Make a copy of a flat vector the model's trainable arrays."""
        if theta.shape != (self.size,):
            raise ValueError(f"theta must have shape ({self.size},), got {theta.shape}")
        copy = self.model(self.split(theta.copy()))
        self._model.sites, self._model.attention = copy.sites, copy.attention

    def bind(self, theta: np.ndarray) -> tuple[tp.Tape, dict[str, tp.Node]]:
        """A fresh tape and its leaf nodes for one training step, by name."""
        tape = tp.Tape()
        return tape, {name: tape.param(a) for name, a in self.split(theta).items()}

    def flatten_grads(self, grads: tp.Gradients, leaves: dict[str, tp.Node]) -> np.ndarray:
        return np.concatenate([np.ravel(grads[n]) for n in leaves.values()])


# ---------------------------------------------------------------------------
# checkpoints


FORMAT = 2  # checkpoint format written; format 1 is still read (see the module docs)


def save_checkpoint(model: SlideClassifier, path: str | Path, history: list | None = None,
                    split: dict | None = None) -> None:
    if model.merged or model.stack.seed is None:
        backbone = {"kind": "explicit",
                    "blocks": [vars(b) for b in model.stack.blocks],
                    "proj": model.stack.proj, "dim": model.stack.dim}
    else:
        backbone = {"kind": "seeded", "seed": model.stack.seed}
    payload = {
        "format": FORMAT,
        "merged": model.merged,
        "config": model.config.to_dict(),
        "backbone": backbone,
        "ssf": [{"block": block, "kind": kind, "gamma": p.gamma, "beta": p.beta}
                for (block, kind), p in model.sites.items()],
        "attention": {f: getattr(model.attention, f) for f in AttentionParams.FIELDS},
        "prompts": prompts_to_dict(model.prompts),
        "history": history or [],
        "split": split,
    }
    write_json(path, payload)


def _weights(obj: dict, key: str, kind: tuple, at: str) -> np.ndarray:
    """`get` of a float array whose norms square in float64, the rule of
    the bag and prompt files (`check_norms`); a vector counts as one row."""
    x = get(obj, key, kind, at)
    return check_norms(x, f"{at}.{key}", "its" if x.ndim == 1 else "a row's")


def _load_sites(records: list, n_blocks: int, dim: int) -> dict[tuple[int, str], SsfParams]:
    """The adapter sites of `records` by (block, kind), in the records'
    order, frozen identity records (format 1) dropped; a bad record raises
    a ValueError that names its field."""
    sites, seen = {}, set()
    for i, r in enumerate(records):
        at = f"ssf[{i}]"
        block, kind = get(read(r, dict, at), "block", int, at), get(r, "kind", str, at)
        if not 1 <= block <= n_blocks:
            raise ValueError(f"{at}.block must be an integer in 1..{n_blocks}, got {block!r}")
        if kind not in SITE_KINDS:
            raise ValueError(f"{at}.kind must be one of {SITE_KINDS}, got {kind!r}")
        if (block, kind) in seen:
            raise ValueError(f"{at} repeats the {kind} site of block {block}")
        seen.add((block, kind))
        params = SsfParams(*(_weights(r, v, (float, dim), at) for v in ("gamma", "beta")))
        if read(r.get("trainable", True), bool, f"{at}.trainable"):
            sites[block, kind] = params
        elif (params.gamma != 1.0).any() or params.beta.any():
            raise ValueError(f"{at} is frozen but not an identity adapter")
    return sites


def _load_backbone(bb: dict, enc: EncoderConfig) -> TextEncoderStack:
    """The explicit backbone of a merged checkpoint, checked against the
    config's encoder; a bad field raises a ValueError that names it."""
    d, h = enc.dim, enc.mlp_hidden
    shapes = {"ln_gain": (d,), "ln_bias": (d,), "w1": (h, d), "b1": (h,), "w2": (d, h),
              "b2": (d,)}
    if get(bb, "dim", int, "backbone") != d:
        raise ValueError(f"backbone.dim must be the encoder dim {d}, got {bb['dim']!r}")
    records = get(bb, "blocks", list, "backbone")
    if len(records) != enc.blocks:
        raise ValueError(f"backbone.blocks must list the encoder's {enc.blocks} blocks, "
                         f"got {len(records)}")
    blocks = []
    for i, b in enumerate(records):
        at = f"backbone.blocks[{i}]"
        if set(read(b, dict, at)) != set(shapes):
            raise ValueError(f"{at} must hold exactly {sorted(shapes)}")
        blocks.append(EncoderBlock(**{k: _weights(b, k, (float, *shape), at)
                                      for k, shape in shapes.items()}))
    return TextEncoderStack(blocks=blocks, proj=_weights(bb, "proj", (float, d, d), "backbone"),
                            dim=d, seed=None)


def _load_history(records: list) -> list[dict]:
    """The epoch rows of a checkpoint's `history`, each read field by field."""
    return [{"epoch": get(read(r, dict, at), "epoch", int, at),
             "train_loss": get(r, "train_loss", float, at), "val_auc": get(r, "val_auc", float, at)}
            for i, r in enumerate(records) for at in [f"history[{i}]"]]


def load_checkpoint(path: str | Path):
    """Returns (model, history, split)."""
    with json_input(path, "checkpoint") as raw:
        raw = read(raw, dict, "the checkpoint")
        if get(raw, "format", int) not in (1, FORMAT):
            raise ValueError(f"format must be 1 or {FORMAT}, got {raw['format']}")
        config = config_from_dict(get(raw, "config", dict), "config")
        enc = config.encoder
        bb = get(raw, "backbone", dict)
        kind = get(bb, "kind", str, "backbone")
        if kind not in ("seeded", "explicit"):
            raise ValueError(f"backbone.kind must be 'seeded' or 'explicit', got {kind!r}")
        if kind == "seeded":
            seed = get(bb, "seed", int, "backbone")
            if seed < 0:
                raise ValueError(f"backbone.seed must be a non-negative integer, got {seed!r}")
            stack = build_stack(seed, enc.blocks, enc.dim, enc.mlp_hidden)
        else:
            stack = _load_backbone(bb, enc)
        sites = _load_sites(get(raw, "ssf", list), stack.n_blocks, stack.dim)
        attention = get(raw, "attention", dict)
        attention = AttentionParams(*(
            _weights(attention, f, (float, enc.attn_hidden) if f in ("w_r", "w")
                else (float, enc.attn_hidden, enc.dim), "attention")
            for f in AttentionParams.FIELDS))
        prompts = prompts_from_dict(get(raw, "prompts", dict))
        _check_width(prompts, enc.dim, ValueError)
        merged = read(raw.get("merged", False), bool, "merged")
        history = _load_history(read(raw.get("history", []), list, "history"))
        split = read(raw.get("split"), dict | None, "split")
        for name, ids in (split or {}).items():
            if name != "k":  # a split's slide ids
                for j, sid in enumerate(read(ids, list, f"split.{name}")):
                    read(sid, str, f"split.{name}[{j}]")
    model = SlideClassifier(stack=stack, sites=sites, attention=attention,
                            prompts=prompts, config=config, merged=merged)
    return model, history, split


def merge_model(model: SlideClassifier) -> SlideClassifier:
    """Fold all adapters into the backbone; the result has no adapter
    parameters and computes the same slide probabilities."""
    merged_stack = merge_reparam(model.stack, model.sites)
    return SlideClassifier(stack=merged_stack, sites={}, attention=model.attention.copy(),
                           prompts=model.prompts, config=model.config, merged=True)
