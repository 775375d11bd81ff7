import json
import weakref

import numpy as np
import pytest
from dataclasses import replace

from textmil import hierpool
from textmil import model as model_mod
from textmil import tape as tp
from textmil.config import EncoderConfig, RunConfig, TrainConfig
from textmil.data import GeneratorSpec, build_dataset, kshot_split
from textmil.errors import ConfigError, DataError, NumericError
from textmil.gradcheck import loss_grad_check, run_gradcheck, toy_problem
from textmil.hierpool import BagBatch, RefinementConfig
from textmil.metrics import evaluate
from textmil.model import (SlideClassifier, TrainableLayout, build_model, class_probabilities,
                           load_checkpoint, merge_model, save_checkpoint)
from textmil.ssf import SITE_KINDS, build_sites, count_trainable
from textmil.textenc import PromptSet, build_prompt, build_stack, encode, encode_prefix
from textmil.train import AdamState, adam_step, epoch_loss, fit, run_kshot


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
    p = np.array([[0.5, 0.5]])
    assert tp.mean_nll(p, [0]) == pytest.approx(0.6931471805599453, abs=1e-12)
    p_hi = np.array([[1 - 1e-12, 1e-12]])
    assert tp.mean_nll(p_hi, [0]) <= 1e-11
    # the mean over rows of each row's cross-entropy
    assert tp.mean_nll(np.vstack([p, p_hi]), [0, 1]) == pytest.approx(
        (0.6931471805599453 - np.log(1e-12)) / 2, rel=1e-12)


def test_nll_rejects_bad_label():
    with pytest.raises(DataError):
        tp.mean_nll(np.array([[0.5, 0.5]]), [2])


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


def test_trainable_layout_names_order_and_offsets():
    cfg = small_config()
    cfg = replace(cfg, encoder=replace(cfg.encoder, blocks=12))
    model = build_model(cfg, build_dataset(cfg.generator).prompts)
    layout = TrainableLayout(model)
    assert list(layout.shapes) == (
        [f"ssf.{b}.{k}.{v}" for b in (11, 12) for k in SITE_KINDS for v in ("gamma", "beta")]
        + [f"attn.{f}" for f in hierpool.AttentionParams.FIELDS])
    assert layout.size == count_trainable(16, 2, 6, 16)
    theta = layout.pack()
    for (name, part), (key, arr) in zip(layout.split(theta).items(), layout.arrays().items()):
        assert name == key and np.array_equal(part, arr)
    _, leaves = layout.bind(theta)
    assert list(leaves) == list(layout.shapes)
    layout.apply(theta + 1.0)
    assert np.array_equal(layout.pack(), theta + 1.0)


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
    before = [np.array(a, copy=True) for a in model.stack.weight_arrays()]
    fit(model, train_bags, val_bags)
    after = model.stack.weight_arrays()
    assert len(before) == len(after)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


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


def test_fit_encodes_class_prompts_once_per_epoch(monkeypatch):
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(model_mod, "encode", counted)
    res = fit(model, train_bags, val_bags)
    assert model.prompts.n_classes == 2
    assert len(calls) == 2 * (len(res.history) + 1)


def reference_fit(model, train_bags, val_bags):
    """The loop order in which validation encodes the class prompts anew:
    step, Adam update, then `evaluate(model, val)`. Returns (history,
    best epoch, final parameter vector)."""
    cfg = model.config.train
    batches = list(hierpool.batch_bags(sorted(train_bags, key=lambda b: b.slide_id)))
    layout = TrainableLayout(model)
    theta, adam = layout.pack(), AdamState.zeros(layout.size)
    best, best_theta, best_epoch, since, history = -np.inf, theta.copy(), 0, 0, []
    for epoch in range(1, cfg.max_epochs + 1):
        loss, tape, nodes, _ = epoch_loss(model, batches, layout, theta)
        theta = adam_step(adam, theta, layout.flatten_grads(tape.backward(loss), nodes),
                          lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
        layout.apply(theta)
        val_auc = evaluate(model, val_bags).auc
        history.append({"epoch": epoch, "train_loss": float(tp.value(loss)),
                        "val_auc": float(val_auc)})
        if val_auc > best:
            best, best_theta, best_epoch, since = val_auc, theta.copy(), epoch, 0
        else:
            if val_auc == best:
                best_theta, best_epoch = theta.copy(), epoch
            since += 1
            if since > cfg.patience:
                break
    layout.apply(best_theta)
    return history, best_epoch, layout.pack()


def test_fit_matches_reference_loop_bitwise():
    # noisy enough that the validation AUC rises, drops, then ties until
    # the patience runs out well before max_epochs
    cfg = small_config(seed=2, patience=3)
    cfg = replace(cfg, generator=replace(cfg.generator, noise_std=0.3))
    model, train_bags, val_bags, _ = make_problem(cfg)
    res = fit(model, train_bags, val_bags)
    ref_model, *_ = make_problem(cfg)
    history, best_epoch, theta = reference_fit(ref_model, train_bags, val_bags)
    aucs = [h["val_auc"] for h in history]
    assert len(history) < cfg.train.max_epochs
    assert aucs[-1] == aucs[-2] == max(aucs) and min(aucs) < aucs[0]
    assert res.history == history
    assert res.best_epoch == best_epoch
    assert np.array_equal(TrainableLayout(model).pack(), theta)


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
    row = {"epoch": 1, "train_loss": 0.5, "val_auc": 0.75}
    save_checkpoint(model, path, history=[row], split={"train": [], "val": [], "test": []})
    loaded, history, split = load_checkpoint(path)
    assert history == [row]
    a = evaluate(model, test_bags)
    b = evaluate(loaded, test_bags)
    assert a.auc == b.auc
    for ra, rb in zip(a.per_slide, b.per_slide):
        assert ra == rb


def test_checkpoint_lists_only_adapted_sites(tmp_path):
    model, *_ = make_problem(small_config())  # 4 blocks, the last 2 adapted
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, split={"train": ["a"]})
    raw = json.loads(path.read_text())
    assert raw["format"] == 2
    assert [(r["block"], r["kind"]) for r in raw["ssf"]] == \
        [(b, k) for b in (3, 4) for k in SITE_KINDS]
    assert all(set(r) == {"block", "kind", "gamma", "beta"} for r in raw["ssf"])
    loaded, history, split = load_checkpoint(path)
    assert [(s.block, s.kind) for s in loaded.sites] == [(s.block, s.kind) for s in model.sites]
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again, history=history, split=split)
    assert again.read_bytes() == path.read_bytes()


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


def test_fit_rejects_one_class_validation_set():
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    with pytest.raises(DataError, match=r"holds classes \[1\]"):
        fit(model, train_bags, [b for b in val_bags if b.label == 1])


# ---------------------------------------------------------------------------
# frozen-prefix cache


def full_encode(model, sites=None):
    """Class embeddings through every block, bypassing the prefix cache."""
    use = model.sites if sites is None else sites
    return [encode(model.stack, build_prompt(c), use) for c in model.prompts.classes]


def count_prefixes(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return encode_prefix(*args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_prefix", counted)
    return calls


def test_cached_class_embeddings_bitwise_plain_and_taped(monkeypatch):
    cfg = small_config()
    model, train_bags, _, _ = make_problem(cfg)
    for a, b in zip(model.class_embeddings(), full_encode(model)):
        assert np.array_equal(a, b)
    layout = TrainableLayout(model)
    theta = layout.pack()
    batches = list(hierpool.batch_bags(train_bags))
    loss, tape, nodes, embs = epoch_loss(model, batches, layout, theta)
    for a, b in zip(embs, model.class_embeddings()):
        assert np.array_equal(tp.value(a), b)
    grad = layout.flatten_grads(tape.backward(loss), nodes)
    monkeypatch.setattr(SlideClassifier, "class_embeddings", full_encode)
    ref_loss, ref_tape, ref_nodes, _ = epoch_loss(model, batches, layout, theta)
    ref_grad = layout.flatten_grads(ref_tape.backward(ref_loss), ref_nodes)
    assert tp.value(loss) == tp.value(ref_loss)
    assert np.array_equal(grad, ref_grad)
    assert len(tape) == len(ref_tape)


def test_prefix_cache_follows_reassigned_sites_stack_and_prompts(monkeypatch):
    cfg = small_config()
    model, _, _, _ = make_problem(cfg)
    calls = count_prefixes(monkeypatch)
    model.class_embeddings()
    layout = TrainableLayout(model)
    layout.apply(layout.pack() + 0.01)  # new trainable arrays only: cache still valid
    model.class_embeddings()
    model.sites = build_sites(41, 4, 2, 16, 0.1)  # new sites, same boundary: still valid
    for a, b in zip(model.class_embeddings(), full_encode(model)):
        assert np.array_equal(a, b)
    assert len(calls) == 2
    model.sites = build_sites(41, 4, 3, 16, 0.1)  # one more adapted block: boundary moves
    for a, b in zip(model.class_embeddings(), full_encode(model)):
        assert np.array_equal(a, b)
    assert calls[-1] == 1
    model.stack = build_stack(6, 4, 16, 8)
    for a, b in zip(model.class_embeddings(), full_encode(model)):
        assert np.array_equal(a, b)
    model.prompts = PromptSet(classes=[replace(c, region_tokens=c.region_tokens[::-1].copy())
                                       for c in model.prompts.classes],
                              tumor_class=model.prompts.tumor_class)
    for a, b in zip(model.class_embeddings(), full_encode(model)):
        assert np.array_equal(a, b)
    assert len(calls) == 8


def test_fit_computes_each_class_prefix_once(monkeypatch):
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    calls = count_prefixes(monkeypatch)
    result = fit(model, train_bags, val_bags)
    assert len(result.history) > 1
    assert calls == [2] * model.prompts.n_classes  # blocks 1..2 of 4 are frozen


def test_model_without_trainable_sites_caches_whole_stack(monkeypatch):
    cfg = small_config()
    model, train_bags, val_bags, _ = make_problem(cfg)
    fit(model, train_bags, val_bags)
    merged = merge_model(model)
    calls = count_prefixes(monkeypatch)
    embs = merged.class_embeddings()
    assert calls == [merged.stack.n_blocks] * merged.prompts.n_classes
    for a, b in zip(embs, full_encode(merged)):
        assert np.array_equal(a, b)
    for a, b in zip(embs, model.class_embeddings()):
        assert np.abs(a - b).max() <= 1e-10


def test_save_checkpoint_rejects_non_finite(tmp_path):
    model, *_ = make_problem(small_config())
    model.attention.w[0] = np.nan
    path = tmp_path / "ckpt.json"
    with pytest.raises(NumericError, match="ckpt.json"):
        save_checkpoint(model, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# batched forward pass


def assert_json_close(a, b, tol, where="result"):
    """`a` and `b` have the same structure and strings, and their numbers
    differ by at most `tol`."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_json_close(a[key], b[key], tol, f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, tol, f"{where}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= tol, where
    else:
        assert a == b, where


def test_batched_probabilities_match_per_slide_batches(monkeypatch):
    cfg = small_config()
    model, train_bags, val_bags, test_bags = make_problem(cfg)
    fit(model, train_bags, val_bags)
    bags = test_bags + val_bags
    together, _ = model.forward(BagBatch.of(bags))
    alone = np.vstack([model.forward(BagBatch.of([b]))[0] for b in bags])
    assert np.abs(together - alone).max() <= 1e-12
    res = evaluate(model, bags)
    by_id = {r["slide_id"]: r["probabilities"] for r in res.per_slide}
    assert np.abs(np.array([by_id[b.slide_id] for b in bags]) - together).max() <= 1e-12
    # the same slide ids (same generator seed) at 266-294 instance rows
    # each, so the real row limit cuts them three to a batch
    big = build_dataset(replace(cfg.generator, regions_min=14, regions_max=14,
                                instances_min=19, instances_max=21))
    ids = {b.slide_id for b in bags}
    large = [b for b in big.bags if b.slide_id in ids]
    cut = list(hierpool.batch_bags(sorted(large, key=lambda b: b.slide_id)))
    assert len(large) == len(bags) and len(cut) == -(-len(large) // 3)
    assert all(batch.n_slides == 3 for batch in cut[:-1])
    batched = evaluate(model, large, with_localization=True, attention=True)
    monkeypatch.setattr(hierpool, "MAX_BATCH_ROWS", 1)  # one slide per batch
    single = evaluate(model, large, with_localization=True, attention=True)
    assert batched.dice_per_slide
    assert_json_close(batched.to_dict(), single.to_dict(), 1e-12)
    assert_json_close(batched.attention, single.attention, 1e-12, "attention")


def test_evaluate_holds_one_batch_at_a_time(monkeypatch):
    cfg = small_config()
    model, _, val_bags, test_bags = make_problem(cfg)
    built, alive = [], []
    real = BagBatch.of

    def of(bags):
        alive.append(sum(ref() is not None for ref in built))
        batch = real(bags)
        built.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(BagBatch, "of", staticmethod(of))
    monkeypatch.setattr(hierpool, "MAX_BATCH_ROWS", 30)
    for localize in (False, True):
        built.clear()
        evaluate(model, test_bags + val_bags, with_localization=localize, attention=localize)
        assert len(built) > 2
    assert alive == [0] * len(alive)  # each earlier batch is gone before the next is built


def test_epoch_loss_is_the_same_for_any_batching(monkeypatch):
    cfg = small_config()
    model, train_bags, _, _ = make_problem(cfg)
    layout = TrainableLayout(model)
    theta = layout.pack()
    loss, tape, nodes, _ = epoch_loss(model, list(hierpool.batch_bags(train_bags)), layout, theta)
    grad = layout.flatten_grads(tape.backward(loss), nodes)
    monkeypatch.setattr(hierpool, "MAX_BATCH_ROWS", 1)  # one slide per batch
    cut, cut_tape, cut_nodes, _ = epoch_loss(model, list(hierpool.batch_bags(train_bags)),
                                             layout, theta)
    cut_grad = layout.flatten_grads(cut_tape.backward(cut), cut_nodes)
    assert len(cut_tape) > len(tape)
    assert abs(tp.value(loss) - tp.value(cut)) <= 1e-12
    assert np.abs(grad - cut_grad).max() <= 1e-12 * np.abs(grad).max()


def search_then_sort_backward(root):
    """The reverse sweep as first written, kept as the reference: collect
    every node the root reaches, leaves included, sort them by descending
    record index and run each node's pulls in order."""
    seen, order, todo = {root.index}, [root], [root]
    while todo:
        for parent, _ in todo.pop().pulls:
            if parent.index not in seen:
                seen.add(parent.index)
                order.append(parent)
                todo.append(parent)
    order.sort(key=lambda n: n.index, reverse=True)
    grads = {root.index: 1.0}
    for node in order:
        g = grads[node.index]
        for parent, pull in node.pulls:
            contrib = pull(g)
            prev = grads.get(parent.index)
            grads[parent.index] = contrib if prev is None else prev + contrib
    return tp.Gradients(grads)


def test_default_epoch_gradient_matches_reference_sweep_bitwise():
    """A default k=4 epoch's flattened gradient, at the initial parameters
    and after one Adam step, is the reference sweep's to the last bit."""
    cfg = RunConfig()
    assert cfg.train.shots == 4
    dataset = build_dataset(cfg.generator)
    spec = dataset.spec
    plan = kshot_split(dataset.labels(), 4, cfg.train.seed, dataset_seed=spec.seed,
                       test_per_class=spec.test_per_class, val_per_class=spec.val_per_class)
    model = build_model(cfg, dataset.prompts)
    train_bags = sorted(model.check_bags(dataset.select(plan.train)), key=lambda b: b.slide_id)
    batches = list(hierpool.batch_bags(train_bags))
    layout = TrainableLayout(model)
    theta = layout.pack()
    for _ in range(2):
        loss, tape, nodes, _ = epoch_loss(model, batches, layout, theta)
        grad = layout.flatten_grads(tape.backward(loss), nodes)
        ref = layout.flatten_grads(search_then_sort_backward(loss), nodes)
        assert np.abs(grad).max() > 0.0
        assert grad.tobytes() == ref.tobytes()
        theta = adam_step(AdamState.zeros(layout.size), theta, grad, lr=cfg.train.lr)
        layout.apply(theta)


def test_default_kshot_grid_pinned():
    """The benchmark's fit-kshot grid with the shipped defaults: k in
    {1, 4, 8} x fold seeds {0, 1}. Epoch counts and the mean test NLL pin
    early stopping, so a reordered sum that moved a validation AUC tie
    shows here."""
    cfg = RunConfig()
    dataset = build_dataset(cfg.generator)
    epochs, nlls = [], []
    for fold in (0, 1):
        for k in (1, 4, 8):
            run = replace(cfg, train=replace(cfg.train, shots=k, seed=fold))
            model, result, plan = run_kshot(run, dataset)
            epochs.append(len(result.history))
            per_slide = evaluate(model, dataset.select(plan.test)).per_slide
            nlls.append(np.mean([-np.log(r["probabilities"][r["label"]]) for r in per_slide]))
    assert epochs == [43, 45, 43, 49, 53, 42]
    assert abs(float(np.mean(nlls)) - 0.38160926422353575) <= 1e-9
