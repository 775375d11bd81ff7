"""End-to-end gradient verification of the full training loss.

Compares the tape gradient of the mean cross-entropy on a small toy
problem against central finite differences, for both refinement
gradient modes. In "detached" mode the score is a constant of the
optimization, so the finite-difference oracle evaluates the loss with
the refinement scores frozen at the base point; in "through-score"
mode everything is recomputed. Both the tape and the oracle pool the toy
slides as one batch, so detached mode freezes one flat score vector per
attention level.

A valid comparison point must keep every coordinate resolvable: the
piecewise score is not differentiable at its branch boundaries, and a
central difference at h=1e-6 in double precision cannot resolve
relative error on coordinates whose true gradient sits below the
finite-difference noise floor (~1e-10 absolute). The sampler therefore
draws zero-avoiding random values (magnitudes bounded away from zero,
random signs) and resamples until all cosines clear the boundaries and
the smallest gradient coordinate clears the trust floor.
"""

from __future__ import annotations

import numpy as np

from . import tape as tp
from .config import EncoderConfig, RefinementConfig, RunConfig, TrainConfig
from .errors import NumericError
from .hierpool import AttentionParams, Region, SlideBag, batch_bags, wsi_encode
from .model import SlideClassifier, TrainableLayout, build_model
from .ssf import build_sites
from .textenc import ClassPrompt, PromptSet
from .train import batch_loss, epoch_loss

BRANCH_MARGIN_MIN = 1e-3   # distance of every cosine from {0, threshold}
GRAD_FLOOR = 3e-6          # smallest resolvable gradient at h=1e-6


def _away_from_zero(rng: np.random.Generator, shape, lo=0.3, hi=1.2) -> np.ndarray:
    """Uniform magnitudes in [lo, hi] with random signs: no entry near 0."""
    mag = rng.uniform(lo, hi, size=shape)
    sign = rng.choice((-1.0, 1.0), size=shape)
    return mag * sign


def toy_config(gradient: str = "through-score") -> RunConfig:
    return RunConfig(
        encoder=EncoderConfig(dim=8, blocks=3, mlp_hidden=8, attn_hidden=4, backbone_seed=11),
        train=TrainConfig(depth=2, ssf_init_std=0.1, seed=0, shots=1, temperature=0.5),
        refinement=RefinementConfig(factor=3.0, gradient=gradient),
    )


def toy_problem(seed: int, gradient: str = "through-score"):
    """2 bags x 2 regions x 3 instances with well-conditioned random values."""
    cfg = toy_config(gradient)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4EC]))
    dim = cfg.encoder.dim

    def tokens(n):
        return _away_from_zero(rng, (n, dim)) / np.sqrt(dim)

    prompts = PromptSet(classes=[
        ClassPrompt(class_id=c, name=f"class_{c}",
                    region_tokens=tokens(2), slide_tokens=tokens(2))
        for c in range(2)], tumor_class=1)

    bags = []
    for c in range(2):
        regions = []
        for m in range(2):
            emb = _away_from_zero(rng, (3, dim)) / np.sqrt(dim)
            regions.append(Region(region_id=str(m), coord=(0, m),
                                  instance_coords=[(0, j) for j in range(3)],
                                  embeddings=emb))
        bags.append(SlideBag(slide_id=f"toy_{c}", label=c, regions=regions))

    model = build_model(cfg, prompts)
    model.sites = build_sites(int(rng.integers(2 ** 62)), cfg.encoder.blocks,
                              cfg.train.depth, dim, cfg.train.ssf_init_std)
    model.attention = AttentionParams(
        w_r=0.5 * _away_from_zero(rng, 4), v1=0.4 * _away_from_zero(rng, (4, dim)),
        v2=0.4 * _away_from_zero(rng, (4, dim)), w=0.5 * _away_from_zero(rng, 4),
        u1=0.4 * _away_from_zero(rng, (4, dim)), u2=0.4 * _away_from_zero(rng, (4, dim)))
    return model, bags


def branch_margin(model: SlideClassifier, bags) -> float:
    """Smallest distance of any refinement cosine to a branch boundary."""
    embs = model.class_embeddings()
    guidance = model.guidance(embs)
    if guidance is None:
        return np.inf
    alpha = model.config.refinement.threshold
    margin = np.inf
    t = tp.value(guidance)
    for batch in batch_bags(bags):
        out = wsi_encode(batch, guidance, model.attention, model.config.refinement)
        for h in (batch.rows, tp.value(out.region.embedding)):
            c = (h @ t) / (np.linalg.norm(h, axis=1) * np.linalg.norm(t))
            margin = min(margin, float(np.abs(c).min()), float(np.abs(c - alpha).min()))
    return margin


def tape_gradient(model: SlideClassifier, bags):
    layout = TrainableLayout(model)
    theta0 = layout.pack()
    loss, tape_, nodes, _ = epoch_loss(model, list(batch_bags(bags)), layout, theta0)
    return layout, theta0, layout.flatten_grads(tape_.backward(loss), nodes)


def loss_grad_check(model: SlideClassifier, bags, h: float = 1e-6) -> float:
    """Max relative error of the tape gradient vs central differences."""
    layout, theta0, grad = tape_gradient(model, bags)
    batches = list(batch_bags(bags))

    frozen = None
    if model.config.refinement.gradient == "detached":
        embs = model.class_embeddings()
        guidance = model.guidance(embs)
        frozen = [wsi_encode(b, guidance, model.attention, model.config.refinement).frozen_scores()
                  for b in batches]

    def f(theta: np.ndarray) -> float:
        sites, attn = layout.assemble(layout.split(theta))
        embs = model.class_embeddings(sites)
        return batch_loss(model, batches, embs, model.guidance(embs), attn, frozen)

    return tp.grad_check(f, theta0, grad, h=h)


def run_gradcheck(seed: int = 0, h: float = 1e-6, min_margin: float = BRANCH_MARGIN_MIN,
                  grad_floor: float = GRAD_FLOOR, max_attempts: int = 50) -> dict:
    """Gradient check for both refinement modes on a fresh toy problem."""
    for attempt in range(max_attempts):
        s = seed + attempt
        model, bags = toy_problem(s)
        margin = branch_margin(model, bags)
        if margin < min_margin:
            continue
        _, _, grad = tape_gradient(model, bags)
        gmin = float(np.abs(grad).min())
        if gmin < grad_floor:
            continue
        errors = {}
        for mode in ("through-score", "detached"):
            m, b = toy_problem(s, gradient=mode)
            errors[mode] = loss_grad_check(m, b, h=h)
        return {"seed": s, "branch_margin": float(margin), "min_grad": gmin, "step": h,
                "n_params": int(grad.shape[0]),
                "through-score": errors["through-score"],
                "detached": errors["detached"],
                "max_rel_error": max(errors.values()),
                "config": toy_config().to_dict()}
    raise NumericError(
        f"no sample with branch margin >= {min_margin} and gradient floor "
        f">= {grad_floor} in {max_attempts} attempts")
