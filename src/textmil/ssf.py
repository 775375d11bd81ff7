"""Scale-and-shift adapters for frozen encoder layers.

Each adapter multiplies a feature vector elementwise by a learned scale
and adds a learned shift. Adapters sit at two sites per encoder block
(after the layernorm and after the MLP), on the trailing `depth` blocks
only; the other blocks run bare. A model's adapters are one map from
(block, site kind) to `SsfParams`, by block then site kind. The blocks
before the first site are encoded once per model
(`SlideClassifier.frozen_prefix`); each adapter records one
`tp.scale_shift` node on the tape of an epoch, over the token rows of
every class prompt, which end in one (classes, dim) class matrix. The
same tape holds the batched pooling of every training slide: 41 nodes
in a default k=4 epoch. At inference time an adapter can be folded
exactly into the affine layer it follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import ConfigError

SITE_KINDS = ("post_layernorm", "post_mlp")
SITES_PER_BLOCK = len(SITE_KINDS)


@dataclass
class SsfParams:
    """Per-site scale and shift vectors (same dimension as the features)."""

    gamma: np.ndarray
    beta: np.ndarray


def ssf_forward(x, params: SsfParams):
    """gamma * x_t + beta for each token row x_t of the matrix X, one
    `tp.scale_shift` node on a tape. Accepts tape nodes or plain arrays."""
    return tp.scale_shift(x, params.gamma, params.beta)


def attach_depth(n_blocks: int, depth: int) -> list[int]:
    """Indices of the trailing `depth` blocks, {n_blocks - depth + 1 .. n_blocks}."""
    if not 1 <= depth <= n_blocks:
        raise ConfigError(f"depth must be in [1, {n_blocks}], got {depth}")
    return list(range(n_blocks - depth + 1, n_blocks + 1))


def build_sites(seed: int, n_blocks: int, depth: int, dim: int,
                init_std: float) -> dict[tuple[int, str], SsfParams]:
    """Adapters on the trailing `depth` blocks by (block, kind), block
    1-based, in block then site kind order, with gamma ~ N(1, std^2) and
    beta ~ N(0, std^2). The site of kind k on block b draws from child
    (b - 1) * SITES_PER_BLOCK + k of the seed's spawn, so its values do
    not depend on `depth`."""
    if init_std < 0:
        raise ConfigError(f"init_std must be >= 0, got {init_std}")
    seeds = np.random.SeedSequence(seed).spawn(n_blocks * SITES_PER_BLOCK)
    sites = {}
    for block in attach_depth(n_blocks, depth):
        for k, kind in enumerate(SITE_KINDS):
            rng = np.random.default_rng(seeds[(block - 1) * SITES_PER_BLOCK + k])
            gamma = 1.0 + init_std * rng.standard_normal(dim)
            beta = init_std * rng.standard_normal(dim)
            sites[block, kind] = SsfParams(gamma, beta)
    return sites


def merge_into_layernorm(gain: np.ndarray, bias: np.ndarray, params: SsfParams):
    """Fold an adapter into the affine part of the preceding layernorm."""
    return params.gamma * gain, params.gamma * bias + params.beta


def merge_into_linear(w: np.ndarray, b: np.ndarray, params: SsfParams):
    """Fold an adapter into the preceding linear layer (rows scaled)."""
    return params.gamma[:, None] * w, params.gamma * b + params.beta


def count_trainable(dim: int, depth: int, attn_hidden: int, attn_dim: int) -> int:
    """Closed-form trainable-parameter count.

    Adapters contribute 2 * dim per site over `SITES_PER_BLOCK * depth`
    sites; each of the two attention-pooling blocks contributes two
    (attn_hidden x attn_dim) matrices plus an attn_hidden logit vector,
    so `attn_hidden` 0 counts the adapters alone.
    """
    adapters = 2 * dim * SITES_PER_BLOCK * depth
    attention = 2 * (2 * attn_hidden * attn_dim + attn_hidden)
    return adapters + attention
