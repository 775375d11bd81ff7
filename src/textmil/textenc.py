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
`tumor_class` is an integer or null.

The class embeddings become the rows of the class matrix that the
batched head compares every slide of a batch against
(`model.class_probabilities`). A training tape covers one epoch: it
records each class prompt's adapted blocks once, token by token, however
many slides the epoch pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape as tp
from .errors import DataError, get, json_input, read, strict_dumps
from .ssf import SITE_KINDS, SsfParams, SsfSite, merge_into_layernorm, merge_into_linear, ssf_forward


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

    def weight_arrays(self) -> list[np.ndarray]:
        out = []
        for b in self.blocks:
            out.extend([b.ln_gain, b.ln_bias, b.w1, b.b1, b.w2, b.b2])
        out.append(self.proj)
        return out


def build_stack(seed: int, n_blocks: int, dim: int, mlp_hidden: int | None = None) -> TextEncoderStack:
    """Deterministic frozen backbone. Weight matrices are N(0, 1/sqrt(dim));
    layernorm gains sit near one so the untuned stack is well-conditioned."""
    hidden = mlp_hidden or dim
    std = 1.0 / np.sqrt(dim)
    seeds = np.random.SeedSequence(seed).spawn(n_blocks + 1)
    blocks = []
    for i in range(n_blocks):
        rng = np.random.default_rng(seeds[i])
        blocks.append(EncoderBlock(
            ln_gain=1.0 + std * rng.standard_normal(dim),
            ln_bias=std * rng.standard_normal(dim),
            w1=std * rng.standard_normal((hidden, dim)),
            b1=std * rng.standard_normal(hidden),
            w2=std * rng.standard_normal((dim, hidden)),
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


@dataclass
class PromptSet:
    classes: list[ClassPrompt]
    tumor_class: int | None = None

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_prompt(prompt: ClassPrompt) -> np.ndarray:
    """Concatenate the two token sequences, region-level tokens first."""
    for name, toks in (("region_tokens", prompt.region_tokens), ("slide_tokens", prompt.slide_tokens)):
        if toks.ndim != 2 or toks.shape[0] == 0:
            raise DataError(f"{name} of class {prompt.class_id} must be a nonempty token matrix")
    if prompt.region_tokens.shape[1] != prompt.slide_tokens.shape[1]:
        raise DataError("region and slide tokens must share the embedding dimension")
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
    text = strict_dumps(prompts_to_dict(prompts), path, indent=1)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# forward


def _site_map(sites: list[SsfSite] | None) -> dict:
    if sites is None:
        return {}
    return {(s.block, s.kind): s.params for s in sites}


def _token_rows(stack: TextEncoderStack, tokens) -> list:
    tokens = np.asarray(tokens, dtype=np.float64) if not isinstance(tokens, np.ndarray) else tokens
    if tokens.ndim != 2 or tokens.shape[0] == 0:
        raise DataError("tokens must be a nonempty (n_tokens, dim) matrix")
    if tokens.shape[1] != stack.dim:
        raise DataError(f"token dim {tokens.shape[1]} does not match encoder dim {stack.dim}")
    return [tokens[t] for t in range(tokens.shape[0])]


def _run_blocks(stack: TextEncoderStack, xs: list, sites: list[SsfSite] | None,
                first: int, last: int) -> list:
    """Token activations after blocks `first..last` (1-based, inclusive)."""
    site_params = _site_map(sites)
    for b_idx in range(first, last + 1):
        block = stack.blocks[b_idx - 1]
        ln_site = site_params.get((b_idx, "post_layernorm"))
        mlp_site = site_params.get((b_idx, "post_mlp"))
        nxt = []
        for x in xs:
            u = tp.layernorm(x, block.ln_gain, block.ln_bias)
            if ln_site is not None:
                u = ssf_forward(u, ln_site)
            h = tp.tanh(tp.add(tp.matvec(block.w1, u), block.b1))
            v = tp.add(tp.matvec(block.w2, h), block.b2)
            if mlp_site is not None:
                v = ssf_forward(v, mlp_site)
            nxt.append(tp.add(x, v))
        xs = nxt
    return xs


def encode_prefix(stack: TextEncoderStack, tokens: np.ndarray, boundary: int) -> np.ndarray:
    """Token activations (n_tokens, dim) after the bare blocks
    1..`boundary`. When no adapter site sits on those blocks,
    `encode(stack, prefix, sites, start=boundary)` finishes the forward
    pass bit for bit as `encode(stack, tokens, sites)`."""
    if not 0 <= boundary <= stack.n_blocks:
        raise ValueError(f"boundary must be in [0, {stack.n_blocks}], got {boundary}")
    return np.stack(_run_blocks(stack, _token_rows(stack, tokens), None, 1, boundary))


def encode(stack: TextEncoderStack, tokens: np.ndarray, sites: list[SsfSite] | None = None,
           start: int = 0):
    """Map token embeddings (n_tokens, dim) to a unit-norm text embedding.

    Adapter parameters may be tape nodes, in which case the result is a
    node differentiable with respect to them; the backbone itself never
    enters the tape. `sites=None` runs the bare frozen stack. With
    `start > 0`, `tokens` are the activations after block `start` (from
    `encode_prefix`) and only blocks `start+1..L` run, so frozen leading
    blocks can be computed once and reused.
    """
    if not 0 <= start <= stack.n_blocks:
        raise ValueError(f"start must be in [0, {stack.n_blocks}], got {start}")
    xs = _run_blocks(stack, _token_rows(stack, tokens), sites, start + 1, stack.n_blocks)
    pooled = tp.pool(np.full(len(xs), 1.0 / len(xs)), tp.rows(xs))
    return tp.l2_normalize(tp.matvec(stack.proj, pooled))


def refinement_embedding(class_embeddings: list, tumor_index: int | None = None):
    """Guidance embedding used to refine attention weights.

    With a designated tumor class (binary tasks) the guidance is that
    class's embedding. Otherwise it is the normalized mean of all class
    embeddings; a near-zero mean yields None, which disables refinement.
    """
    n = len(class_embeddings)
    if n == 0:
        raise DataError("refinement embedding needs at least one class embedding")
    if tumor_index is not None:
        if not 0 <= tumor_index < n:
            raise DataError(f"tumor class index {tumor_index} out of range")
        return class_embeddings[tumor_index]
    if n == 1:
        return class_embeddings[0]
    m = tp.pool(np.full(n, 1.0 / n), tp.rows(class_embeddings))
    if float(np.linalg.norm(tp.value(m))) < tp.EPS_NORM:
        return None
    return tp.l2_normalize(m)


# ---------------------------------------------------------------------------
# re-parameterization merge


def merge_reparam(stack: TextEncoderStack, sites: list[SsfSite]) -> TextEncoderStack:
    """Fold every adapter into the affine layer it follows.

    Post-layernorm adapters land in the layernorm gain/bias; post-MLP
    adapters land in the MLP output linear. The merged stack carries no
    adapters and computes the same function as the adapted one.
    """
    per_block: dict[int, dict[str, SsfParams]] = {}
    for s in sites:
        per_block.setdefault(s.block, {})[s.kind] = s.params
    merged = []
    for b_idx, block in enumerate(stack.blocks, start=1):
        kinds = per_block.get(b_idx, {})
        unknown = set(kinds) - set(SITE_KINDS)
        if unknown:
            raise DataError(f"no affine merge target for site kind(s) {sorted(unknown)}")
        ln_gain, ln_bias = block.ln_gain, block.ln_bias
        w2, b2 = block.w2, block.b2
        if "post_layernorm" in kinds:
            ln_gain, ln_bias = merge_into_layernorm(ln_gain, ln_bias, kinds["post_layernorm"])
        if "post_mlp" in kinds:
            w2, b2 = merge_into_linear(w2, b2, kinds["post_mlp"])
        merged.append(EncoderBlock(
            ln_gain=np.array(ln_gain, copy=True), ln_bias=np.array(ln_bias, copy=True),
            w1=np.array(block.w1, copy=True), b1=np.array(block.b1, copy=True),
            w2=np.array(w2, copy=True), b2=np.array(b2, copy=True),
        ))
    return TextEncoderStack(blocks=merged, proj=np.array(stack.proj, copy=True), dim=stack.dim, seed=None)
