"""End-to-end gradient verification of the full training loss.

Compares the tape gradient of the mean cross-entropy on a small toy
problem against central finite differences, for both refinement
gradient modes. In "detached" mode the score is a constant of the
optimization, so the finite-difference oracle evaluates the loss with
the refinement scores frozen at the base point; in "through-score"
mode everything is recomputed. Tape and oracle score `train.mean_loss`
on a copy of the model, pooling the toy slides as one batch, so detached
mode freezes one flat score vector per attention level.

The tape runs the text encoder over the token rows of both class prompts
at once; the oracle runs it one token row at a time
(`SlideClassifier.row_by_row`). The row ops give each row the bits it
would get alone, so both evaluate the same function and the oracle
differences it. But the oracle never sees two rows together: an op that
coupled the rows of a batch, even with a VJP right for that coupling,
computes a function the oracle does not, and the check fails on it.

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

from dataclasses import replace

import numpy as np

from . import tape as tp
from .config import EncoderConfig, RefinementConfig, RunConfig, TrainConfig
from .errors import NumericError
from .hierpool import AttentionParams, BagBatch, Region, SlideBag
from .model import SlideClassifier, TrainableLayout, build_model
from .ssf import build_sites
from .textenc import ClassPrompt, PromptSet
from .train import epoch_loss, mean_loss

STEP = 1e-6                # central-difference step h
BRANCH_MARGIN_MIN = 1e-3   # distance of every cosine from {0, threshold}
GRAD_FLOOR = 3e-6          # smallest resolvable gradient at STEP
MAX_ATTEMPTS = 50          # toy problems drawn before giving up


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform magnitudes in [0.3, 1.2] with random signs: no entry near 0."""
    mag = rng.uniform(0.3, 1.2, size=shape)
    return mag * rng.choice((-1.0, 1.0), size=shape)


def toy_problem(seed: int):
    """2 bags x 2 regions x 3 instances with well-conditioned random values."""
    cfg = RunConfig(
        encoder=EncoderConfig(dim=8, blocks=3, mlp_hidden=8, attn_hidden=4, backbone_seed=11),
        train=TrainConfig(depth=2, ssf_init_std=0.1, seed=0, shots=1, temperature=0.5),
        refinement=RefinementConfig(factor=3.0))
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
    text = model.text()
    if text[1] is None:
        return np.inf
    alpha = model.config.refinement.threshold
    t = tp.value(text[1])
    batch = BagBatch.of(bags)
    margin = np.inf
    for h in (batch.rows, tp.value(model.forward(batch, text)[1].region.embedding)):
        c = (h @ t) / (np.linalg.norm(h, axis=1) * np.linalg.norm(t))
        margin = min(margin, float(np.abs(c).min()), float(np.abs(c - alpha).min()))
    return margin


def tape_gradient(model: SlideClassifier, bags):
    layout = TrainableLayout(model)
    theta0 = layout.pack()
    loss, tape_, nodes, _ = epoch_loss(BagBatch.of(bags), layout, theta0)
    return layout, theta0, layout.flatten_grads(tape_.backward(loss), nodes)


def loss_grad_check(model: SlideClassifier, bags, tape_grad=None) -> float:
    """Max relative error of the tape gradient (`tape_grad`, if held) vs
    central differences of the loss, its text encoded one token row at a
    time (see the module docs)."""
    _, theta0, grad = tape_grad or tape_gradient(model, bags)
    batch = BagBatch.of(bags)
    frozen = model.forward(batch)[1] if model.config.refinement.gradient == "detached" else None
    oracle = TrainableLayout(replace(model, row_by_row=True))

    def f(theta: np.ndarray) -> float:
        return mean_loss(oracle.model(oracle.split(theta)), batch, frozen)[0]

    return tp.grad_check(f, theta0, grad, h=STEP)


def run_gradcheck(seed: int = 0) -> dict:
    """Gradient check for both refinement modes on a fresh toy problem."""
    for attempt in range(MAX_ATTEMPTS):
        s = seed + attempt
        model, bags = toy_problem(s)
        margin = branch_margin(model, bags)
        if margin < BRANCH_MARGIN_MIN:
            continue
        through = tape_gradient(model, bags)
        gmin = float(np.abs(through[2]).min())
        if gmin < GRAD_FLOOR:
            continue
        cfg = model.config
        detached = replace(model, config=replace(
            cfg, refinement=replace(cfg.refinement, gradient="detached")))
        errors = {"through-score": loss_grad_check(model, bags, tape_grad=through),
                  "detached": loss_grad_check(detached, bags)}
        return {"seed": s, "branch_margin": float(margin), "min_grad": gmin, "step": STEP,
                "n_params": int(through[2].shape[0]), **errors,
                "max_rel_error": max(errors.values()), "config": cfg.to_dict()}
    raise NumericError(
        f"no sample with branch margin >= {BRANCH_MARGIN_MIN} and gradient floor "
        f">= {GRAD_FLOOR} in {MAX_ATTEMPTS} attempts")
