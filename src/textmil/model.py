"""Classifier bundle: frozen encoder + adapters + attention + prompts.

The trainable state is exactly the adapter vectors on the trailing
blocks plus the two attention-pooling parameter sets, flattened into
one vector in a fixed order (adapters by block then site, gamma before
beta; then attention fields). Checkpoints are plain JSON and normally
reference the backbone by seed; a merged checkpoint stores the folded
backbone weights explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tape as tp
from .config import RunConfig, config_from_dict
from .errors import ConfigError, DataError, strict_dumps
from .hierpool import AttentionParams, BagBatch, BagScores, SlideBag, init_attention, wsi_encode
from .ssf import SsfParams, SsfSite, build_sites
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
        model's) may hold tape nodes on trainable sites. Only the blocks
        from the first trainable site onward run here; the frozen blocks
        before it come from `frozen_prefix`."""
        use = self.sites if sites is None else sites
        boundary, prefixes = self.frozen_prefix(use)
        return [encode(self.stack, x, use, start=boundary) for x in prefixes]

    def frozen_prefix(self, sites) -> tuple[int, list[np.ndarray]]:
        """(boundary, each class prompt's token activations after blocks
        1..boundary), where the boundary is the block before the first
        trainable site (the whole stack when none trains). Computed once
        and reused while the stack, the prompt tokens and the prefix
        sites' arrays stay the same objects; writing new trainable
        parameters (`TrainableLayout.apply`) does not invalidate it."""
        first = min((s.block for s in sites if s.trainable), default=self.stack.n_blocks + 1)
        boundary = first - 1
        frozen = [s for s in sites if s.block <= boundary]
        objs = (self.stack,
                *(t for c in self.prompts.classes for t in (c.region_tokens, c.slide_tokens)),
                *(a for s in frozen for a in (s.params.gamma, s.params.beta)))
        key = (boundary, tuple((s.block, s.kind) for s in frozen), tuple(map(id, objs)))
        if self._prefix is None or self._prefix[0] != key:
            prefixes = [encode_prefix(self.stack, build_prompt(c), frozen, boundary)
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
        """`bags` unchanged, once each embedding width matches the encoder's."""
        for bag in bags:
            if bag.dim != self.stack.dim:
                raise DataError(f"slide {bag.slide_id} has embedding dim {bag.dim}; "
                                f"the model expects {self.stack.dim}")
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
    """Fixed flattening of the trainable parameters.

    Order: adapter sites sorted by (block, site kind), gamma then beta;
    then attention fields w_r, v1, v2, w, u1, u2 in C order.
    """

    def __init__(self, model: SlideClassifier):
        self._model = model
        self._site_indices = [i for i, s in enumerate(model.sites) if s.trainable]
        self._entries: list[tuple] = []
        for i in self._site_indices:
            dim = model.sites[i].params.gamma.shape[0]
            self._entries.append(("ssf", i, "gamma", (dim,)))
            self._entries.append(("ssf", i, "beta", (dim,)))
        for name in AttentionParams.FIELDS:
            self._entries.append(("attn", None, name, getattr(model.attention, name).shape))
        self.size = sum(int(np.prod(shape)) for *_, shape in self._entries)

    def _arrays(self):
        for kind, idx, name, _ in self._entries:
            if kind == "ssf":
                yield getattr(self._model.sites[idx].params, name)
            else:
                yield getattr(self._model.attention, name)

    def pack(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._arrays()])

    def apply(self, theta: np.ndarray) -> None:
        """Write a flat vector back into the model's arrays."""
        if theta.shape != (self.size,):
            raise ValueError(f"theta must have shape ({self.size},), got {theta.shape}")
        pos = 0
        for kind, idx, name, shape in self._entries:
            n = int(np.prod(shape))
            arr = theta[pos:pos + n].reshape(shape).copy()
            if kind == "ssf":
                setattr(self._model.sites[idx].params, name, arr)
            else:
                setattr(self._model.attention, name, arr)
            pos += n

    def bind(self, theta: np.ndarray):
        """Leaf nodes for one training step: returns (tape, sites view,
        attention view, nodes in entry order)."""
        tape = tp.Tape()
        nodes, pos = [], 0
        bound: dict[tuple, tp.Node] = {}
        for kind, idx, name, shape in self._entries:
            n = int(np.prod(shape))
            node = tape.param(theta[pos:pos + n].reshape(shape))
            bound[(kind, idx, name)] = node
            nodes.append(node)
            pos += n
        sites = []
        for i, site in enumerate(self._model.sites):
            if site.trainable:
                params = SsfParams(bound[("ssf", i, "gamma")], bound[("ssf", i, "beta")])
            else:
                params = site.params
            sites.append(SsfSite(site.block, site.kind, params, site.trainable))
        attn = AttentionParams(*(bound[("attn", None, f)] for f in AttentionParams.FIELDS))
        return tape, sites, attn, nodes

    def flatten_grads(self, grads: tp.Gradients, nodes: list) -> np.ndarray:
        return np.concatenate([np.asarray(grads[n]).ravel() for n in nodes])


# ---------------------------------------------------------------------------
# checkpoints


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
        "ssf": [{"block": s.block, "kind": s.kind, "trainable": s.trainable,
                 "gamma": s.params.gamma.tolist(), "beta": s.params.beta.tolist()}
                for s in model.sites],
        "attention": {f: getattr(model.attention, f).tolist() for f in AttentionParams.FIELDS},
        "prompts": prompts_to_dict(model.prompts),
        "history": history or [],
        "split": split,
    }
    text = strict_dumps(payload, path)
    Path(path).write_text(text + "\n")


def load_checkpoint(path: str | Path):
    """Returns (model, history, split)."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        config = config_from_dict(raw["config"])
        bb = raw["backbone"]
        if bb["kind"] == "seeded":
            stack = build_stack(bb["seed"], config.encoder.blocks, config.encoder.dim,
                                config.encoder.mlp_hidden)
        else:
            blocks = [EncoderBlock(**{k: finite_array(v, f"backbone.blocks[{i}].{k}")
                                      for k, v in b.items()})
                      for i, b in enumerate(bb["blocks"])]
            stack = TextEncoderStack(blocks=blocks, proj=finite_array(bb["proj"], "backbone.proj"),
                                     dim=int(bb["dim"]), seed=None)
        sites = [SsfSite(block=int(s["block"]), kind=str(s["kind"]),
                         params=SsfParams(finite_array(s["gamma"], f"ssf[{i}].gamma"),
                                          finite_array(s["beta"], f"ssf[{i}].beta")),
                         trainable=bool(s["trainable"]))
                 for i, s in enumerate(raw["ssf"])]
        attention = AttentionParams(*(finite_array(raw["attention"][f], f"attention.{f}")
                                      for f in AttentionParams.FIELDS))
        prompts = prompts_from_dict(raw["prompts"])
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
