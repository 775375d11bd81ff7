import numpy as np
import pytest
from dataclasses import replace

from textmil import tape as tp
from textmil.config import EncoderConfig, RunConfig, TrainConfig
from textmil.data import GeneratorSpec, build_dataset, kshot_split
from textmil.errors import ConfigError, DataError, NumericError
from textmil.gradcheck import loss_grad_check, run_gradcheck, toy_problem
from textmil.hierpool import RefinementConfig
from textmil.metrics import evaluate
from textmil.model import (TrainableLayout, build_model, class_probabilities, load_checkpoint,
                           merge_model, nll, save_checkpoint)
from textmil.ssf import count_trainable
from textmil.train import AdamState, adam_step, fit


def small_config(seed=0, k=2, **train_kw):
    train_args = dict(seed=seed, shots=k, depth=2, max_epochs=30, patience=10, lr=3e-3)
    train_args.update(train_kw)
    return RunConfig(
        encoder=EncoderConfig(dim=16, blocks=4, mlp_hidden=8, attn_hidden=6, backbone_seed=5),
        train=TrainConfig(**train_args),
        generator=GeneratorSpec(seed=1, dim=16, slides_per_class=12, noise_std=0.08,
                                regions_min=2, regions_max=3, instances_min=4,
                                instances_max=6, tumor_region_fraction=0.75,
                                tumor_instance_fraction=0.85, region_tokens=2,
                                slide_tokens=2, test_per_class=4, val_per_class=4),
    )


def make_problem(cfg):
    ds = build_dataset(cfg.generator)
    bags = {b.slide_id: b for b in ds.bags}
    plan = kshot_split({b.slide_id: b.label for b in ds.bags}, cfg.train.shots,
                       cfg.train.seed, dataset_seed=cfg.generator.seed,
                       test_per_class=cfg.generator.test_per_class,
                       val_per_class=cfg.generator.val_per_class)
    model = build_model(cfg, ds.prompts)
    return (model, [bags[i] for i in plan.train], [bags[i] for i in plan.val],
            [bags[i] for i in plan.test])


# ---------------------------------------------------------------------------
# class probabilities and loss


def test_class_probabilities_symmetric():
    f = np.array([1.0, 1.0, 0.0, 0.0])
    t0 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    t1 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2)
    p = class_probabilities(f, [t0, t1], temperature=0.07)
    assert np.abs(p - 0.5).max() <= 1e-12


def test_class_probabilities_frozen_value():
    # cosines exactly [0.8, 0.2] at temperature 0.07
    f = np.array([1.0, 0.0])
    t0 = np.array([0.8, 0.6])
    t1 = np.array([0.2, np.sqrt(1 - 0.04)])
    p = class_probabilities(f, [t0, t1], temperature=0.07)
    assert p[0] == pytest.approx(0.9998105940561749, abs=1e-12)
    assert p[1] == pytest.approx(0.00018940594382518605, rel=1e-9)


def test_class_probabilities_large_temperature_uniform():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(8)
    ts = [tp.l2_normalize(rng.standard_normal(8)) for _ in range(3)]
    # deviation from uniform decays like (max cos - min cos) / temperature
    p = class_probabilities(f, ts, temperature=1e6)
    assert np.abs(p - 1.0 / 3).max() <= 2.0 / 1e6
    p9 = class_probabilities(f, ts, temperature=1e9)
    assert np.abs(p9 - 1.0 / 3).max() <= 1e-9


def test_class_probabilities_rescale_invariance():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(8)
    ts = [tp.l2_normalize(rng.standard_normal(8)) for _ in range(3)]
    a = class_probabilities(f, ts, temperature=0.07)
    b = class_probabilities(3.7 * f, ts, temperature=0.07)
    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-12


def test_class_probabilities_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        class_probabilities(np.ones(2), [np.ones(2)], temperature=0.0)


def test_nll_values():
    p = np.array([0.5, 0.5])
    assert float(tp.value(nll(p, 0))) == pytest.approx(0.6931471805599453, abs=1e-12)
    p_hi = np.array([1 - 1e-12, 1e-12])
    assert float(tp.value(nll(p_hi, 0))) <= 1e-11


def test_nll_rejects_bad_label():
    with pytest.raises(DataError):
        nll(np.array([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_no_move():
    state = AdamState.zeros(4)
    theta = np.array([1.0, -2.0, 3.0, 0.0])
    out = adam_step(state, theta, np.zeros(4), lr=0.1)
    assert np.array_equal(out, theta)


def test_adam_first_step_sign_scaled():
    state = AdamState.zeros(3)
    theta = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    lr, eps = 0.01, 1e-8
    out = adam_step(state, theta, g, lr=lr, eps=eps)
    expected = -lr * g / (np.abs(g) + eps)
    assert np.abs(out - expected).max() <= 1e-15


def test_adam_deterministic():
    def run():
        state = AdamState.zeros(2)
        theta = np.array([0.3, -0.7])
        for i in range(10):
            theta = adam_step(state, theta, np.array([np.sin(i + 1.0), 0.5]), lr=1e-2)
        return theta
    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    state = AdamState.zeros(2)
    with pytest.raises(NumericError):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]), lr=0.1)


# ---------------------------------------------------------------------------
# gradients of the full loss


def test_loss_gradient_matches_finite_differences_both_modes():
    report = run_gradcheck(seed=0)
    assert report["max_rel_error"] <= 1e-4
    assert report["through-score"] <= 1e-4
    assert report["detached"] <= 1e-4


def test_loss_gradient_modes_differ():
    m1, b1 = toy_problem(7, gradient="through-score")
    m2, b2 = toy_problem(7, gradient="detached")
    from textmil.gradcheck import tape_gradient
    _, _, g1 = tape_gradient(m1, b1)
    _, _, g2 = tape_gradient(m2, b2)
    assert np.abs(g1 - g2).max() > 1e-6


# ---------------------------------------------------------------------------
# fit


def test_trainable_vector_size_matches_closed_form():
    cfg = small_config()
    model, *_ = make_problem(cfg)
    layout = TrainableLayout(model)
    assert layout.size == count_trainable(16, 2, 6, 16)


def test_identity_init_zero_lr_keeps_parameters():
    cfg = small_config(lr=0.0, ssf_init_std=0.0)
    model, train_bags, val_bags, _ = make_problem(cfg)
    layout = TrainableLayout(model)
    before = layout.pack()
    res = fit(model, train_bags, val_bags)
    after = layout.pack()
    assert np.array_equal(before, after)
    aucs = {h["val_auc"] for h in res.history}
    assert len(aucs) == 1


def test_frozen_backbone_unchanged_by_fit():
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    checksum = model.stack.checksum()
    blocks_before = [np.array(b.w1, copy=True) for b in model.stack.blocks]
    fit(model, train_bags, val_bags)
    assert model.stack.checksum() == checksum
    for before, block in zip(blocks_before, model.stack.blocks):
        assert np.array_equal(before, block.w1)


def test_patience_zero_stops_at_first_non_improvement():
    cfg = small_config(patience=0, max_epochs=30)
    model, train_bags, val_bags, _ = make_problem(cfg)
    res = fit(model, train_bags, val_bags)
    aucs = [h["val_auc"] for h in res.history]
    best_running = aucs[0]
    for a in aucs[1:-1]:
        assert a > best_running  # every epoch before the last must improve
        best_running = max(best_running, a)
    assert aucs[-1] <= best_running or len(aucs) == cfg.train.max_epochs


def test_fit_returns_best_validation_parameters():
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    res = fit(model, train_bags, val_bags)
    recorded = max(h["val_auc"] for h in res.history)
    assert res.best_val_auc == recorded
    re_eval = evaluate(model, val_bags).auc
    assert abs(re_eval - recorded) <= 1e-12


def test_fit_determinism():
    cfg = small_config()
    m1, tr, va, _ = make_problem(cfg)
    r1 = fit(m1, tr, va)
    m2, tr2, va2, _ = make_problem(cfg)
    r2 = fit(m2, tr2, va2)
    assert r1.history == r2.history
    assert np.array_equal(TrainableLayout(m1).pack(), TrainableLayout(m2).pack())


def test_fit_validates_split():
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    with pytest.raises(DataError):
        fit(model, train_bags[:-1], val_bags)  # one class short of k
    with pytest.raises(DataError):
        fit(model, train_bags, [])
    with pytest.raises(DataError):
        fit(model, train_bags, train_bags)


def test_fit_learns_separable_data():
    cfg = small_config(k=4, max_epochs=60, patience=20)
    cfg = replace(cfg, generator=replace(cfg.generator, slides_per_class=14),
                  train=replace(cfg.train, shots=4, lr=1e-2))
    model, train_bags, val_bags, test_bags = make_problem(cfg)
    res = fit(model, train_bags, val_bags)
    assert res.best_val_auc >= 0.9
    # converged separable run classifies its own training slides perfectly
    assert evaluate(model, train_bags).auc == 1.0


def test_untrained_identity_model_near_chance_on_random_data():
    # balanced bags whose embeddings carry no class signal at all
    from textmil.hierpool import Region, SlideBag
    aucs = []
    for seed in range(8):
        cfg = small_config(seed=seed, ssf_init_std=0.0)
        ds = build_dataset(cfg.generator)
        model = build_model(cfg, ds.prompts)
        rng = np.random.default_rng(1000 + seed)
        bags = []
        for i in range(16):
            regions = [Region(region_id=str(m), coord=(0, m),
                              instance_coords=[(0, j) for j in range(4)],
                              embeddings=rng.standard_normal((4, 16)))
                       for m in range(2)]
            bags.append(SlideBag(slide_id=f"r{i:02d}", label=i % 2, regions=regions))
        aucs.append(evaluate(model, bags).auc)
    assert 0.35 <= float(np.mean(aucs)) <= 0.65


def test_training_loss_non_increasing_first_epoch_default_seed():
    cfg = small_config(k=4, lr=1e-2)
    cfg = replace(cfg, generator=replace(cfg.generator, slides_per_class=14))
    model, train_bags, val_bags, _ = make_problem(cfg)
    res = fit(model, train_bags, val_bags)
    assert res.history[1]["train_loss"] <= res.history[0]["train_loss"]


# ---------------------------------------------------------------------------
# checkpoints and merge


def test_checkpoint_round_trip(tmp_path):
    cfg = small_config()
    model, train_bags, val_bags, test_bags = make_problem(cfg)
    fit(model, train_bags, val_bags)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, history=[{"epoch": 1}], split={"train": [], "val": [], "test": []})
    loaded, history, split = load_checkpoint(path)
    assert history == [{"epoch": 1}]
    a = evaluate(model, test_bags)
    b = evaluate(loaded, test_bags)
    assert a.auc == b.auc
    for ra, rb in zip(a.per_slide, b.per_slide):
        assert ra == rb


def test_merge_matches_probabilities(tmp_path):
    cfg = small_config()
    model, train_bags, val_bags, test_bags = make_problem(cfg)
    fit(model, train_bags, val_bags)
    merged = merge_model(model)
    assert merged.sites == []
    a = evaluate(model, test_bags)
    b = evaluate(merged, test_bags)
    for ra, rb in zip(a.per_slide, b.per_slide):
        diff = np.abs(np.array(ra["probabilities"]) - np.array(rb["probabilities"])).max()
        assert diff <= 1e-10
    # merged checkpoint survives the disk round trip with explicit backbone
    path = tmp_path / "merged.json"
    save_checkpoint(merged, path)
    reloaded, _, _ = load_checkpoint(path)
    c = evaluate(reloaded, test_bags)
    for rb, rc in zip(b.per_slide, c.per_slide):
        assert np.abs(np.array(rb["probabilities"]) - np.array(rc["probabilities"])).max() <= 1e-12
