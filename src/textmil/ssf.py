"""Scale-and-shift adapters for frozen encoder layers.

Each adapter multiplies a feature vector elementwise by a learned scale
and adds a learned shift. Adapters sit at two sites per encoder block
(after the layernorm and after the MLP); only the trailing `depth`
blocks get trainable adapters, all other blocks carry a frozen identity
adapter so the forward path is uniform. At inference time an adapter
can be folded exactly into the affine layer it follows.
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

    def copy(self) -> "SsfParams":
        return SsfParams(np.array(self.gamma, copy=True), np.array(self.beta, copy=True))


@dataclass
class SsfSite:
    """An adapter attached to one site of one encoder block (1-based index)."""

    block: int
    kind: str
    params: SsfParams
    trainable: bool


def identity_params(dim: int) -> SsfParams:
    return SsfParams(np.ones(dim), np.zeros(dim))


def ssf_forward(x, params: SsfParams):
    """y_i = gamma_i * x_i + beta_i. Accepts tape nodes or plain arrays."""
    return tp.add(tp.hadamard(params.gamma, x), params.beta)


def attach_depth(n_blocks: int, depth: int) -> list[int]:
    """Indices of the trailing `depth` blocks, {n_blocks - depth + 1 .. n_blocks}."""
    if not 1 <= depth <= n_blocks:
        raise ConfigError(f"depth must be in [1, {n_blocks}], got {depth}")
    return list(range(n_blocks - depth + 1, n_blocks + 1))


def build_sites(seed: int, n_blocks: int, depth: int, dim: int, init_std: float) -> list[SsfSite]:
    """Adapters for a whole stack: trainable sites on the trailing `depth`
    blocks with gamma ~ N(1, std^2) and beta ~ N(0, std^2), frozen identity
    everywhere else."""
    if init_std < 0:
        raise ConfigError(f"init_std must be >= 0, got {init_std}")
    trainable = set(attach_depth(n_blocks, depth))
    seeds = np.random.SeedSequence(seed).spawn(n_blocks * SITES_PER_BLOCK)
    sites = []
    for block in range(1, n_blocks + 1):
        for k, kind in enumerate(SITE_KINDS):
            child = seeds[(block - 1) * SITES_PER_BLOCK + k]
            if block in trainable:
                rng = np.random.default_rng(child)
                gamma = 1.0 + init_std * rng.standard_normal(dim)
                beta = init_std * rng.standard_normal(dim)
                params = SsfParams(gamma, beta)
            else:
                params = identity_params(dim)
            sites.append(SsfSite(block, kind, params, block in trainable))
    return sites


def merge_into_layernorm(gain: np.ndarray, bias: np.ndarray, params: SsfParams):
    """Fold an adapter into the affine part of the preceding layernorm."""
    return params.gamma * gain, params.gamma * bias + params.beta


def merge_into_linear(w: np.ndarray, b: np.ndarray, params: SsfParams):
    """Fold an adapter into the preceding linear layer (rows scaled)."""
    return params.gamma[:, None] * w, params.gamma * b + params.beta


def count_trainable(dim: int, depth: int, attn_hidden: int, attn_dim: int,
                    sites_per_block: int = SITES_PER_BLOCK) -> int:
    """Closed-form trainable-parameter count.

    Adapters contribute 2 * dim per site over `sites_per_block * depth`
    sites; each of the two attention-pooling blocks contributes two
    (attn_hidden x attn_dim) matrices plus an attn_hidden logit vector.
    """
    adapters = 2 * dim * sites_per_block * depth
    attention = 2 * (2 * attn_hidden * attn_dim + attn_hidden)
    return adapters + attention
