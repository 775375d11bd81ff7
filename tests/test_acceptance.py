"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line (visible with `pytest -s` or in
failure output). Training-based criteria use the shipped default
configuration and seeds 0..4.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from textmil import tape as tp
from textmil.cli import main
from textmil.config import RunConfig
from textmil.data import build_dataset
from textmil.gradcheck import run_gradcheck, toy_problem
from textmil.hierpool import BagBatch, RefinementConfig, region_encode, wsi_encode
from textmil.metrics import evaluate
from textmil.model import TrainableLayout, build_model, merge_model
from textmil.ssf import attach_depth, build_sites, count_trainable
from textmil.textenc import build_prompt, build_stack, encode, merge_reparam
from textmil.train import run_kshot

SEEDS = range(5)


def shipped_default() -> RunConfig:
    return RunConfig()


def train_run(cfg: RunConfig, k: int, seed: int, *, refinement_on=True, dataset=None):
    cfg = replace(cfg, train=replace(cfg.train, seed=seed, shots=k),
                  refinement=replace(cfg.refinement, enabled=refinement_on))
    ds = dataset if dataset is not None else build_dataset(cfg.generator)
    model, _, plan = run_kshot(cfg, ds)
    return model, ds.select(plan.test)


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    report = run_gradcheck(seed=0)
    elapsed = time.monotonic() - start
    assert report["through-score"] <= 1e-4
    assert report["detached"] <= 1e-4
    assert report["step"] == 1e-6
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: gradcheck through={report['through-score']:.2e} "
          f"detached={report['detached']:.2e} in {elapsed:.2f}s")


def test_criterion_02_reparameterization_exactness():
    cfg = shipped_default()
    # encoder-level: merged vs adapted forward over 100 random inputs
    stack = build_stack(cfg.encoder.backbone_seed, cfg.encoder.blocks, cfg.encoder.dim,
                        cfg.encoder.mlp_hidden)
    sites = build_sites(17, cfg.encoder.blocks, cfg.train.depth, cfg.encoder.dim, 0.2)
    merged_stack = merge_reparam(stack, sites)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        tokens = rng.standard_normal((4, cfg.encoder.dim)) / 8.0
        a = encode(stack, tokens, sites=sites)
        b = encode(merged_stack, tokens, sites=None)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-12

    # end-to-end: per-slide class probabilities of merged vs unmerged model
    cfg_fast = replace(cfg, train=replace(cfg.train, ssf_init_std=0.2))
    ds = build_dataset(cfg.generator)
    model = build_model(cfg_fast, ds.prompts)
    merged = merge_model(model)
    batch = BagBatch.of(ds.bags[:20])
    pa, _ = model.forward(batch)
    pb, _ = merged.forward(batch)
    worst_prob = float(np.abs(pa - pb).max())
    assert worst_prob <= 1e-10
    print(f"ACCEPTANCE 2 PASS: merge exactness encoder {worst:.2e}, "
          f"probabilities {worst_prob:.2e}")


def test_criterion_03_identity_neutrality_and_zero_guidance():
    cfg = shipped_default()
    stack = build_stack(cfg.encoder.backbone_seed, cfg.encoder.blocks, cfg.encoder.dim,
                        cfg.encoder.mlp_hidden)
    identity_sites = build_sites(0, cfg.encoder.blocks, cfg.encoder.blocks,
                                 cfg.encoder.dim, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        tokens = rng.standard_normal((5, cfg.encoder.dim)) / 8.0
        bare = encode(stack, tokens, sites=None)
        with_identity = encode(stack, tokens, sites=identity_sites)
        assert np.abs(bare - with_identity).max() <= 1e-12

    # zero guidance reduces region pooling to plain gated attention
    from textmil.hierpool import init_attention, Region, SlideBag
    params = init_attention(3, cfg.encoder.attn_hidden, cfg.encoder.dim)
    embs = rng.standard_normal((6, cfg.encoder.dim))
    region = Region(region_id="0", coord=(0, 0),
                    instance_coords=[(0, j) for j in range(6)], embeddings=embs)
    guided = region_encode(BagBatch.of([SlideBag("s", 0, [region])]), None, params,
                           cfg.refinement)
    logits = np.array([params.w_r @ (np.tanh(params.v1 @ h)
                                     * (1.0 / (1.0 + np.exp(-params.v2 @ h))))
                       for h in embs])
    e = np.exp(logits - logits.max())
    assert np.abs(guided.weight_values() - e / e.sum()).max() <= 1e-12
    print("ACCEPTANCE 3 PASS: identity adapters bitwise-neutral; "
          "zero guidance equals plain gated attention")


def test_criterion_04_refinement_branch_table():
    cfg = RefinementConfig(factor=10.0, threshold=0.2)
    table = [
        (0.5, 5.0),
        (0.30000000000000004, 3.0000000000000004),
        (0.1, 0.1),
        (0.19, 0.19),
        (0.2, 0.2),        # boundary: threshold stays on the pass-through branch
        (0.0, 0.0),        # boundary: zero similarity scores zero
        (-0.4, 0.0),
        (-1e-12, 0.0),
    ]
    for c, expected in table:
        s, _ = tp.refine_value(c, cfg.factor, cfg.threshold)
        assert s == expected, f"refine({c}) = {s}, expected {expected}"
    print("ACCEPTANCE 4 PASS: three-branch score table exact, "
          "boundaries c=0.2 -> 0.2 and c=0 -> 0")


def test_criterion_05_structural_invariants():
    cfg = shipped_default()
    rng = np.random.default_rng(12)
    from textmil.hierpool import init_attention, Region, SlideBag
    params = init_attention(7, cfg.encoder.attn_hidden, cfg.encoder.dim)
    guidance = rng.standard_normal(cfg.encoder.dim)
    guidance /= np.linalg.norm(guidance)
    regions = [Region(region_id=str(m), coord=(0, m),
                      instance_coords=[(0, j) for j in range(4)],
                      embeddings=rng.standard_normal((4, cfg.encoder.dim)))
               for m in range(3)]
    bag = SlideBag(slide_id="s", label=0, regions=regions)
    out = wsi_encode(BagBatch.of([bag]), guidance, params, cfg.refinement)
    groups = [out.region_weight_values()] + np.split(out.region.weight_values(),
                                                     out.batch.region_offsets[1:-1])
    assert len(groups) == 4
    for g in groups:
        assert abs(g.sum() - 1.0) <= 1e-12

    perm = [2, 0, 1]
    bag_p = SlideBag(slide_id="s", label=0, regions=[regions[i] for i in perm])
    out_p = wsi_encode(BagBatch.of([bag_p]), guidance, params, cfg.refinement)
    assert np.abs(out_p.region_weight_values() - out.region_weight_values()[perm]).max() <= 1e-9
    assert np.abs(np.asarray(out_p.slide_embedding)
                  - np.asarray(out.slide_embedding)).max() <= 1e-9

    iperm = rng.permutation(4)
    region_p = Region(region_id="0", coord=(0, 0),
                      instance_coords=[(0, j) for j in range(4)],
                      embeddings=regions[0].embeddings[iperm])
    a, b = (region_encode(BagBatch.of([SlideBag("s", 0, [r])]), guidance, params, cfg.refinement)
            for r in (regions[0], region_p))
    assert np.abs(b.weight_values() - a.weight_values()[iperm]).max() <= 1e-9

    for d in range(1, 13):
        assert attach_depth(12, d) == list(range(12 - d + 1, 13))
    print("ACCEPTANCE 5 PASS: softmax groups sum to 1, permutation equivariance, "
          "depth formula exact for d_s=1..12")


def test_criterion_06_few_shot_learning():
    cfg = shipped_default()
    dataset = build_dataset(cfg.generator)
    results = {}
    for label, k, refinement_on in (("k4_on", 4, True), ("k4_off", 4, False),
                                    ("k1_on", 1, True)):
        aucs = []
        for seed in SEEDS:
            start = time.monotonic()
            model, test_bags = train_run(cfg, k, seed, refinement_on=refinement_on,
                                         dataset=dataset)
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"run {label} seed {seed} took {elapsed:.1f}s"
            aucs.append(evaluate(model, test_bags).auc)
        results[label] = float(np.mean(aucs))
    assert results["k4_on"] >= 0.95, results
    assert results["k1_on"] >= 0.80, results
    assert results["k4_on"] >= results["k4_off"], results
    print(f"ACCEPTANCE 6 PASS: k=4 AUC {results['k4_on']:.4f} (>=0.95), "
          f"k=1 AUC {results['k1_on']:.4f} (>=0.80), refinement on "
          f"{results['k4_on']:.4f} >= off {results['k4_off']:.4f}")


def test_criterion_07_localization_dice():
    cfg = shipped_default()
    dataset = build_dataset(cfg.generator)
    dices = []
    for seed in SEEDS:
        model, test_bags = train_run(cfg, 8, seed, dataset=dataset)
        res = evaluate(model, test_bags, with_localization=True)
        assert res.dice_mean is not None
        dices.append(res.dice_mean)
    mean_dice = float(np.mean(dices))
    assert mean_dice >= 0.70, dices
    print(f"ACCEPTANCE 7 PASS: mean dice {mean_dice:.4f} (>=0.70) over {len(dices)} seeds")


def test_criterion_08_parameter_accounting():
    cfg = shipped_default()
    d_t = cfg.encoder.dim
    d_h = cfg.encoder.attn_hidden
    d_v = cfg.encoder.dim
    d_s = cfg.train.depth
    closed_form = 2 * d_t * 2 * d_s + 2 * (2 * d_h * d_v + d_h)
    assert count_trainable(d_t, d_s, d_h, d_v) == closed_form == 8768

    # hand count: enumerate the actual trainable arrays of a built model
    ds = build_dataset(replace(cfg.generator, slides_per_class=2,
                               test_per_class=0, val_per_class=0))
    model = build_model(cfg, ds.prompts)
    assert len(model.sites) == 2 * d_s
    by_hand = sum(s.params.gamma.size + s.params.beta.size for s in model.sites)
    from textmil.hierpool import AttentionParams
    by_hand += sum(getattr(model.attention, f).size for f in AttentionParams.FIELDS)
    assert by_hand == closed_form
    assert TrainableLayout(model).size == closed_form

    counts = [count_trainable(d_t, d, d_h, d_v) for d in range(1, 13)]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    print(f"ACCEPTANCE 8 PASS: trainable count {closed_form} matches closed form "
          f"and hand count; strictly increasing in depth")


def test_criterion_09_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "train": {"shots": 2, "max_epochs": 25, "patience": 8},
    }))
    payloads = []
    for tag in ("first", "second"):
        d, r, e = (tmp_path / f"{tag}_{x}" for x in ("data", "run", "eval"))
        assert main(["generate", "--config", str(cfg_path), "--out", str(d)]) == 0
        assert main(["train", "--config", str(cfg_path), "--data", str(d),
                     "--out", str(r)]) == 0
        assert main(["eval", "--data", str(d), "--checkpoint",
                     str(r / "checkpoint.json"), "--out", str(e)]) == 0
        payloads.append((e / "metrics.json").read_bytes())
    assert payloads[0] == payloads[1]
    print("ACCEPTANCE 9 PASS: generate+train+eval twice -> byte-identical metrics JSON")
