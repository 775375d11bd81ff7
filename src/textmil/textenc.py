"""Frozen text-encoder stand-in with adapter attachment sites.

The stack maps a sequence of prompt token embeddings to a unit-norm
text embedding. Backbone weights are drawn once from a seeded RNG and
never trained; the only learnable influence on the output is through
the scale/shift adapters on the trailing blocks, so the blocks before
the first adapter map a prompt to fixed activations that the model
computes once (`encode_prefix`) and `encode` continues from. Class
prompts come as precomputed token embeddings (region-level tokens
followed by slide-level tokens) — there is no tokenizer here. A prompt
file or a checkpoint's prompts are written with each token matrix as
one base64 block (`errors.Rows.encode`), and read field by field
through `errors.read`: class i carries the JSON integer id i, a string
name and finite token matrices, each a block or nested number lists (the
form of older files, and the easy one to write by hand), and
`tumor_class` is an integer or null. `ClassPrompt` and `PromptSet` check
the rest where they are made: nonempty token matrices of one width per
class, two classes or more, and a tumor class only in a two-class set.

The class embeddings become the rows of the class matrix that the
batched head compares every slide of a batch against
(`model.class_probabilities`). `encode` stacks the token rows of every
class prompt, prompt by prompt, and runs each block once over them. A
training tape covers one epoch: an adapted block records five nodes
(`tp.layernorm`, two `tp.scale_shift` adapter sites, `tp.mlp` and the
residual `tp.add`) however many tokens and slides the epoch holds; the
first adapted block records four, as its input, the cached frozen
prefix, is a constant. Each prompt's rows are then mean-pooled,
projected and normalized on their own, four nodes per class embedding.
The row ops treat each row as the vector ops would, bit for bit, so
`row_by_row` (each token row through the blocks alone) gives the same
values: the gradient check's oracle runs that way, and so does the
frozen prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tape as tp
from .errors import DataError, get, json_input, read, write_json
from .ssf import SITE_KINDS, SsfParams, merge_into_layernorm, merge_into_linear, ssf_forward


@dataclass
class EncoderBlock:
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    w1: np.ndarray  # (hidden, dim)
    b1: np.ndarray
    w2: np.ndarray  # (dim, hidden)
    b2: np.ndarray


@dataclass
class TextEncoderStack:
    """Seeded immutable block stack: per block layernorm -> adapter site ->
    tanh MLP -> adapter site -> residual add; then token mean-pool,
    projection, l2-normalization."""

    blocks: list[EncoderBlock]
    proj: np.ndarray  # (dim, dim)
    dim: int
    seed: int | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_stack(seed: int, n_blocks: int, dim: int, mlp_hidden: int) -> TextEncoderStack:
    """Deterministic frozen backbone. Weight matrices are N(0, 1/sqrt(dim));
    layernorm gains sit near one so the untuned stack is well-conditioned."""
    std = 1.0 / np.sqrt(dim)
    seeds = np.random.SeedSequence(seed).spawn(n_blocks + 1)
    blocks = []
    for i in range(n_blocks):
        rng = np.random.default_rng(seeds[i])
        blocks.append(EncoderBlock(
            ln_gain=1.0 + std * rng.standard_normal(dim),
            ln_bias=std * rng.standard_normal(dim),
            w1=std * rng.standard_normal((mlp_hidden, dim)),
            b1=std * rng.standard_normal(mlp_hidden),
            w2=std * rng.standard_normal((dim, mlp_hidden)),
            b2=std * rng.standard_normal(dim),
        ))
    proj = std * np.random.default_rng(seeds[n_blocks]).standard_normal((dim, dim))
    return TextEncoderStack(blocks=blocks, proj=proj, dim=dim, seed=seed)


# ---------------------------------------------------------------------------
# prompts


@dataclass
class ClassPrompt:
    class_id: int
    name: str
    region_tokens: np.ndarray  # (n_region_tokens, dim)
    slide_tokens: np.ndarray   # (n_slide_tokens, dim)

    def __post_init__(self):
        for name in ("region_tokens", "slide_tokens"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[0] == 0 or shape[1] != self.region_tokens.shape[1]:
                raise ValueError(f"prompts.classes[{self.class_id}].{name} must be a nonempty "
                                 f"token matrix as wide as region_tokens, got shape {shape}")


@dataclass
class PromptSet:
    classes: list[ClassPrompt]
    tumor_class: int | None = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"prompts.classes must hold at least 2 classes, got {self.n_classes}")
        if self.tumor_class is not None and (self.n_classes != 2 or self.tumor_class not in (0, 1)):
            raise ValueError(f"prompts.tumor_class must be null, or 0 or 1 in a set of exactly 2 "
                             f"classes; got {self.tumor_class} with {self.n_classes} classes")

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_prompt(prompt: ClassPrompt) -> np.ndarray:
    """Concatenate the two token sequences, region-level tokens first."""
    return np.concatenate([prompt.region_tokens, prompt.slide_tokens], axis=0)


def prompts_to_dict(prompts: PromptSet) -> dict:
    """The JSON form of a prompt set, shared by the prompt file and
    checkpoints; `strict_dumps` writes each token matrix as a block."""
    return {
        "tumor_class": prompts.tumor_class,
        "classes": [{"id": c.class_id, "name": c.name,
                     "region_tokens": c.region_tokens, "slide_tokens": c.slide_tokens}
                    for c in prompts.classes],
    }


def prompts_from_dict(raw) -> PromptSet:
    """Inverse of `prompts_to_dict`; a bad field raises a ValueError that
    names it. Classes pair with labels by position, so class i must carry
    id i."""
    classes = []
    for i, c in enumerate(get(read(raw, dict, "prompts"), "classes", list, "prompts")):
        at = f"prompts.classes[{i}]"
        if get(read(c, dict, at), "id", int, at) != i:
            raise ValueError(f"{at}.id must be the integer {i}, got {c['id']!r}")
        classes.append(ClassPrompt(class_id=i, name=get(c, "name", str, at),
                                   region_tokens=get(c, "region_tokens", (float, None, None), at),
                                   slide_tokens=get(c, "slide_tokens", (float, None, None), at)))
    return PromptSet(classes=classes,
                     tumor_class=read(raw.get("tumor_class"), int | None, "prompts.tumor_class"))


def load_prompts(path: str | Path) -> PromptSet:
    with json_input(path, "prompt file") as raw:
        return prompts_from_dict(raw)


def save_prompts(prompts: PromptSet, path: str | Path) -> None:
    write_json(path, prompts_to_dict(prompts), indent=1)


# ---------------------------------------------------------------------------
# forward


def _check_tokens(stack: TextEncoderStack, tokens) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise DataError("tokens must be a nonempty (n_tokens, dim) matrix")
    if tokens.shape[1] != stack.dim:
        raise DataError(f"token dim {tokens.shape[1]} does not match encoder dim {stack.dim}")
    return tokens


def _run_blocks(x, stack: TextEncoderStack, sites: dict, first: int, last: int,
                row_by_row: bool = False):
    """Activations of the token rows of `x` after blocks `first..last`
    (1-based, inclusive): each op takes every row at once, or with
    `row_by_row` each row alone (plain arrays only), to the same bits."""
    if row_by_row:
        return np.concatenate([_run_blocks(x[r:r + 1], stack, sites, first, last)
                               for r in range(x.shape[0])])
    for b_idx in range(first, last + 1):
        block = stack.blocks[b_idx - 1]
        u = tp.layernorm(x, block.ln_gain, block.ln_bias)
        if (site := sites.get((b_idx, "post_layernorm"))) is not None:
            u = ssf_forward(u, site)
        v = tp.mlp(u, block.w1, block.b1, block.w2, block.b2)
        if (site := sites.get((b_idx, "post_mlp"))) is not None:
            v = ssf_forward(v, site)
        x = tp.add(x, v)
    return x


def encode_prefix(stack: TextEncoderStack, tokens: np.ndarray, boundary: int) -> np.ndarray:
    """Token activations (n_tokens, dim) after the bare blocks
    1..`boundary`, one token row at a time like the gradient oracle (the
    same bits as the stacked pass; ROADMAP item 4 says why it is not
    stacked yet). When no adapter site sits on those blocks,
    `encode(stack, [prefix], sites, start=boundary)` finishes the forward
    pass bit for bit as `encode(stack, [tokens], sites)`."""
    if not 0 <= boundary <= stack.n_blocks:
        raise ValueError(f"boundary must be in [0, {stack.n_blocks}], got {boundary}")
    return _run_blocks(_check_tokens(stack, tokens), stack, {}, 1, boundary, row_by_row=True)


def encode(stack: TextEncoderStack, prompts: Sequence[np.ndarray], sites: dict | None = None,
           start: int = 0, row_by_row: bool = False) -> list:
    """Map each prompt's token embeddings (n_tokens, dim) to a unit-norm
    text embedding, one per prompt.

    The blocks run once over the token rows of every prompt, stacked
    prompt by prompt; then each prompt's rows are mean-pooled, projected
    and l2-normalized on their own. `sites` maps (block, kind) to the
    `SsfParams` of that adapter site. Adapter parameters may be tape
    nodes, in which case each embedding is a node differentiable with
    respect to them; the backbone itself never enters the tape.
    `sites=None` runs the bare frozen stack. With `start > 0`, the prompts
    are the activations after block `start` (from `encode_prefix`) and
    only blocks `start+1..L` run, so frozen leading blocks can be computed
    once and reused. `row_by_row` runs each token row through the blocks
    alone, on plain arrays only: the same values bit for bit, for the
    finite-difference oracle of gradcheck.py.
    """
    if not 0 <= start <= stack.n_blocks:
        raise ValueError(f"start must be in [0, {stack.n_blocks}], got {start}")
    tokens = [_check_tokens(stack, t) for t in prompts]
    x = _run_blocks(np.concatenate(tokens), stack, sites or {}, start + 1, stack.n_blocks,
                    row_by_row)
    embs, lo = [], 0
    for t in tokens:
        n = t.shape[0]
        pooled = tp.pool(np.full(n, 1.0 / n), tp.take_rows(x, lo, lo + n))
        embs.append(tp.l2_normalize(tp.matvec(stack.proj, pooled)))
        lo += n
    return embs


def refinement_embedding(class_embeddings: list, tumor_index: int | None = None):
    """Guidance embedding used to refine attention weights.

    With a designated tumor class (binary tasks) the guidance is that
    class's embedding. Otherwise it is the normalized mean of all class
    embeddings; a near-zero mean yields None, which disables refinement.
    """
    n = len(class_embeddings)
    if tumor_index is not None:
        return class_embeddings[tumor_index]
    m = tp.pool(np.full(n, 1.0 / n), tp.rows(class_embeddings))
    if float(np.linalg.norm(tp.value(m))) < tp.EPS_NORM:
        return None
    return tp.l2_normalize(m)


# ---------------------------------------------------------------------------
# re-parameterization merge


def merge_reparam(stack: TextEncoderStack,
                  sites: dict[tuple[int, str], SsfParams]) -> TextEncoderStack:
    """Fold every adapter of `sites`, keyed by (block, kind), into the
    affine layer it follows.

    Post-layernorm adapters land in the layernorm gain/bias; post-MLP
    adapters land in the MLP output linear. The merged stack carries no
    adapters and computes the same function as the adapted one.
    """
    unknown = {kind for _, kind in sites} - set(SITE_KINDS)
    if unknown:
        raise DataError(f"no affine merge target for site kind(s) {sorted(unknown)}")
    merged = []
    for b_idx, block in enumerate(stack.blocks, start=1):
        ln_gain, ln_bias = block.ln_gain, block.ln_bias
        w2, b2 = block.w2, block.b2
        if (ln := sites.get((b_idx, "post_layernorm"))) is not None:
            ln_gain, ln_bias = merge_into_layernorm(ln_gain, ln_bias, ln)
        if (mlp := sites.get((b_idx, "post_mlp"))) is not None:
            w2, b2 = merge_into_linear(w2, b2, mlp)
        merged.append(EncoderBlock(
            ln_gain=np.array(ln_gain, copy=True), ln_bias=np.array(ln_bias, copy=True),
            w1=np.array(block.w1, copy=True), b1=np.array(block.b1, copy=True),
            w2=np.array(w2, copy=True), b2=np.array(b2, copy=True),
        ))
    return TextEncoderStack(blocks=merged, proj=np.array(stack.proj, copy=True), dim=stack.dim, seed=None)
