import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from textmil import hierpool
from textmil import tape as tp
from textmil.errors import ConfigError, DataError
from textmil.errors import NumericError
from textmil.hierpool import (AttentionParams, BagBatch, RefinementConfig, Region, SlideBag,
                              attention_records, batch_bags, init_attention, instance_saliency,
                              load_bag, refinement_score, region_encode, save_bag, wsi_encode)
from textmil.model import class_probabilities
from textmil.tape import refine_value

CFG = RefinementConfig(factor=10.0, threshold=0.2)


def make_region(embeddings, region_id="0", coord=(0, 0)):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    return Region(region_id=region_id, coord=coord,
                  instance_coords=[(0, j) for j in range(embeddings.shape[0])],
                  embeddings=embeddings)


def make_bag(region_embs, label=0, slide_id="s"):
    regions = [make_region(e, region_id=str(m), coord=(0, m))
               for m, e in enumerate(region_embs)]
    return SlideBag(slide_id=slide_id, label=label, regions=regions)


def batch_of(*bags):
    return BagBatch.of(list(bags))


def region_batch(embeddings):
    """A batch of one slide holding one region."""
    return batch_of(make_bag([embeddings]))


def random_params(rng, hidden, dim):
    return AttentionParams(
        w_r=rng.standard_normal(hidden), v1=rng.standard_normal((hidden, dim)),
        v2=rng.standard_normal((hidden, dim)), w=rng.standard_normal(hidden),
        u1=rng.standard_normal((hidden, dim)), u2=rng.standard_normal((hidden, dim)))


# ---------------------------------------------------------------------------
# scalar brute-force oracle (pure python loops, no shared code with the tape)


def oracle_score(h, t, lam, alpha):
    num = sum(a * b for a, b in zip(h, t))
    nh = math.sqrt(sum(a * a for a in h))
    nt = math.sqrt(sum(b * b for b in t))
    c = num / (nh * nt)
    if c > alpha:
        return lam * c
    if c > 0.0:
        return c
    return 0.0


def oracle_gate(h, w, m1, m2):
    hidden = len(w)
    acc = 0.0
    for i in range(hidden):
        a = math.tanh(sum(m1[i][j] * h[j] for j in range(len(h))))
        b = 1.0 / (1.0 + math.exp(-sum(m2[i][j] * h[j] for j in range(len(h)))))
        acc += w[i] * a * b
    return acc


def oracle_region(embs, t, params, lam, alpha):
    logits = []
    for h in embs:
        s = oracle_score(h, t, lam, alpha) if t is not None else 0.0
        logits.append(oracle_gate(h, params.w_r.tolist(), params.v1.tolist(),
                                  params.v2.tolist()) + s)
    mx = max(logits)
    exps = [math.exp(x - mx) for x in logits]
    z = sum(exps)
    weights = [e / z for e in exps]
    emb = [sum(weights[j] * embs[j][i] for j in range(len(embs)))
           for i in range(len(embs[0]))]
    return emb, weights


def oracle_slide(region_embs, t, params, lam, alpha):
    regions = [oracle_region(e, t, params, lam, alpha) for e in region_embs]
    logits = []
    for emb, _ in regions:
        s = oracle_score(emb, t, lam, alpha) if t is not None else 0.0
        logits.append(oracle_gate(emb, params.w.tolist(), params.u1.tolist(),
                                  params.u2.tolist()) + s)
    mx = max(logits)
    exps = [math.exp(x - mx) for x in logits]
    z = sum(exps)
    weights = [e / z for e in exps]
    emb = [sum(weights[m] * regions[m][0][i] for m in range(len(regions)))
           for i in range(len(region_embs[0][0]))]
    return emb, weights


# ---------------------------------------------------------------------------
# refinement score branch table


@pytest.mark.parametrize("c,expected", [
    (0.5, 5.0),      # amplified branch: 10 * 0.5
    (0.1, 0.1),      # pass-through branch
    (-0.4, 0.0),     # suppressed
    (0.0, 0.0),      # boundary: non-positive
    (0.2, 0.2),      # boundary: threshold belongs to the pass-through branch
    (0.2000001, 2.000001),
])
def test_refine_value_branch_table(c, expected):
    s, _ = refine_value(c, CFG.factor, CFG.threshold)
    assert s == pytest.approx(expected, rel=1e-12, abs=0.0 if expected else 1e-300)


def test_refine_value_slopes():
    rule = CFG.factor, CFG.threshold
    assert refine_value(0.5, *rule) == (5.0, 10.0)
    assert refine_value(0.15, *rule) == (0.15, 1.0)
    assert refine_value(0.2, *rule) == (0.2, 1.0)
    assert refine_value(-0.2, *rule) == (0.0, 0.0)
    assert refine_value(0.0, *rule) == (0.0, 0.0)


def test_refinement_score_through_cosine():
    t = np.array([[1.0, 0.0, 0.0, 0.0]])
    h = np.array([0.5, math.sqrt(0.75), 0.0, 0.0])
    assert refinement_score(h[None], t, CFG)[0] == pytest.approx(5.0, abs=1e-9)
    h_mid = np.array([0.1, math.sqrt(0.99), 0.0, 0.0])
    assert refinement_score(h_mid[None], t, CFG)[0] == pytest.approx(0.1, abs=1e-9)
    h_neg = np.array([-0.4, math.sqrt(1 - 0.16), 0.0, 0.0])
    assert refinement_score(h_neg[None], t, CFG)[0] == 0.0


def test_refinement_degenerate_guidance_scores_zero():
    assert np.array_equal(refinement_score(np.ones(3)[None], None, CFG), [0.0])


def test_refinement_degenerate_instance_scores_zero():
    assert np.array_equal(refinement_score(np.zeros(3)[None], np.array([[1.0, 0, 0]]), CFG), [0.0])


def test_refinement_monotone_in_cosine():
    cs = np.linspace(-0.9, 0.9, 181)
    t = np.array([[1.0, 0.0]])
    vals = []
    for c in cs:
        h = np.array([c, math.sqrt(1 - c * c)])
        vals.append(refinement_score(h[None], t, CFG)[0])
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_refinement_config_validation():
    with pytest.raises(ConfigError):
        RefinementConfig(factor=0.0)
    with pytest.raises(ConfigError):
        RefinementConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        RefinementConfig(gradient="sideways")


# ---------------------------------------------------------------------------
# region encoder


def test_region_single_instance():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(6)
    out = region_encode(region_batch([h]), None, random_params(rng, 4, 6), CFG)
    assert np.array_equal(out.weights, np.array([1.0]))
    assert np.abs(np.asarray(out.embedding) - h).max() <= 1e-15


def test_region_two_identical_instances():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(6)
    t = tp.l2_normalize(rng.standard_normal((1, 6)))
    out = region_encode(region_batch([h, h]), t, random_params(rng, 4, 6), CFG)
    assert np.abs(out.weights - 0.5).max() <= 1e-15
    assert np.abs(np.asarray(out.embedding) - h).max() <= 1e-12


def test_region_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    embs = rng.standard_normal((3, 5))
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    out = region_encode(region_batch(embs), t, params, CFG)
    emb, weights = oracle_region(embs.tolist(), t[0].tolist(), params, CFG.factor, CFG.threshold)
    assert np.abs(out.weights - np.array(weights)).max() <= 1e-12
    assert np.abs(np.asarray(out.embedding) - np.array(emb)).max() <= 1e-12


def test_region_rejects_empty():
    region = make_region(np.ones((1, 4)))
    region.embeddings = np.empty((0, 4))
    with pytest.raises(DataError):
        region_encode(batch_of(SlideBag("s", 0, [region])), None,
                      random_params(np.random.default_rng(0), 2, 4), CFG)


# ---------------------------------------------------------------------------
# slide encoder


def test_wsi_single_region_passthrough():
    rng = np.random.default_rng(3)
    embs = rng.standard_normal((4, 6))
    t = tp.l2_normalize(rng.standard_normal((1, 6)))
    params = random_params(rng, 4, 6)
    batch = batch_of(make_bag([embs]))
    out = wsi_encode(batch, t, params, CFG)
    region = region_encode(batch, t, params, CFG)
    assert np.array_equal(out.slide.weights, np.array([1.0]))
    assert np.abs(np.asarray(out.slide.embedding) - np.asarray(region.embedding)).max() <= 1e-15


def test_wsi_identical_regions_uniform():
    rng = np.random.default_rng(4)
    embs = rng.standard_normal((3, 6))
    t = tp.l2_normalize(rng.standard_normal((1, 6)))
    params = random_params(rng, 4, 6)
    out = wsi_encode(batch_of(make_bag([embs, embs, embs])), t, params, CFG)
    assert np.abs(out.slide.weights - 1.0 / 3).max() <= 1e-12


def test_wsi_matches_scalar_oracle_full_chain():
    rng = np.random.default_rng(5)
    region_embs = [rng.standard_normal((2, 5)), rng.standard_normal((2, 5))]
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 3, 5)
    out = wsi_encode(batch_of(make_bag(region_embs)), t, params, CFG)
    emb, weights = oracle_slide([e.tolist() for e in region_embs], t[0].tolist(),
                                params, CFG.factor, CFG.threshold)
    assert np.abs(out.slide.weights - np.array(weights)).max() <= 1e-12
    assert np.abs(np.asarray(out.slide.embedding) - np.array(emb)).max() <= 1e-12


@pytest.mark.parametrize("bad_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
def test_validate_bag_rejects_slide_id_that_is_not_a_file_name(bad_id):
    bag = make_bag([np.ones((2, 3))], slide_id=bad_id)
    with pytest.raises(DataError, match="slide_id"):
        hierpool.validate_bag(bag)
    assert hierpool.validate_bag(make_bag([np.ones((2, 3))], slide_id="..a")).slide_id == "..a"


def test_wsi_rejects_empty_bag():
    bag = make_bag([np.ones((1, 4))])
    bag.regions = []
    with pytest.raises(DataError):
        wsi_encode(batch_of(bag), None, random_params(np.random.default_rng(0), 2, 4), CFG)


# ---------------------------------------------------------------------------
# invariants


def test_weights_positive_and_sum_to_one():
    rng = np.random.default_rng(6)
    bag = make_bag([rng.standard_normal((5, 6)) for _ in range(3)])
    t = tp.l2_normalize(rng.standard_normal((1, 6)))
    out = wsi_encode(batch_of(bag), t, random_params(rng, 4, 6), CFG)
    groups = [out.slide.weights] + np.split(out.region.weights,
                                                     out.batch.regions.offsets[1:-1])
    assert len(groups) == 4
    for w in groups:
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12


def test_instance_permutation_equivariance():
    rng = np.random.default_rng(7)
    embs = rng.standard_normal((6, 5))
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    base = region_encode(region_batch(embs), t, params, CFG)
    perm = rng.permutation(6)
    perm_out = region_encode(region_batch(embs[perm]), t, params, CFG)
    assert np.abs(perm_out.weights - base.weights[perm]).max() <= 1e-9
    assert np.abs(np.asarray(perm_out.embedding) - np.asarray(base.embedding)).max() <= 1e-9


def test_region_permutation_equivariance():
    rng = np.random.default_rng(8)
    region_embs = [rng.standard_normal((3, 5)) for _ in range(4)]
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    base = wsi_encode(batch_of(make_bag(region_embs)), t, params, CFG)
    perm = [2, 0, 3, 1]
    perm_out = wsi_encode(batch_of(make_bag([region_embs[i] for i in perm])), t, params, CFG)
    assert np.abs(perm_out.slide.weights - base.slide.weights[perm]).max() <= 1e-9
    assert np.abs(np.asarray(perm_out.slide.embedding)
                  - np.asarray(base.slide.embedding)).max() <= 1e-9


def test_zero_guidance_reduces_to_plain_gated_attention():
    rng = np.random.default_rng(9)
    embs = rng.standard_normal((4, 6))
    params = random_params(rng, 4, 6)
    guided = region_encode(region_batch(embs), None, params, CFG)
    # manual plain gated attention
    logits = np.array([params.w_r @ (np.tanh(params.v1 @ h) * (1 / (1 + np.exp(-params.v2 @ h))))
                       for h in embs])
    e = np.exp(logits - logits.max())
    weights = e / e.sum()
    assert np.abs(guided.weights - weights).max() <= 1e-12


def test_refinement_increases_aligned_attention():
    rng = np.random.default_rng(10)
    t = tp.l2_normalize(rng.standard_normal((1, 6)))
    aligned = 0.9 * t + 0.05 * rng.standard_normal(6)
    others = rng.standard_normal((3, 6))
    embs = np.vstack([aligned, others])
    params = random_params(rng, 4, 6)
    assert tp.cosine(aligned, t)[0, 0] > CFG.threshold
    lo = region_encode(region_batch(embs), t, params, CFG)
    hi_cfg = RefinementConfig(factor=3 * CFG.factor, threshold=CFG.threshold)
    hi = region_encode(region_batch(embs), t, params, hi_cfg)
    assert hi.weights[0] > lo.weights[0]


@given(st.floats(0.21, 0.99), st.floats(1.1, 5.0))
def test_lambda_amplification_property(c, boost):
    rng = np.random.default_rng(11)
    t = np.array([[1.0, 0.0, 0.0]])
    h = np.array([c, math.sqrt(1 - c * c), 0.0])
    embs = np.vstack([h, rng.standard_normal((2, 3))])
    params = random_params(rng, 2, 3)
    base = region_encode(region_batch(embs), t, params, CFG)
    boosted = region_encode(region_batch(embs), t, params,
                            RefinementConfig(factor=CFG.factor * boost,
                                             threshold=CFG.threshold))
    assert boosted.weights[0] > base.weights[0]


# ---------------------------------------------------------------------------
# saliency and export


def test_saliency_single_instance_degenerate():
    rng = np.random.default_rng(12)
    bag = make_bag([rng.standard_normal((1, 4))])
    out = wsi_encode(batch_of(bag), None, random_params(rng, 2, 4), CFG)
    sal = instance_saliency(out)
    assert sal.shape == (1,) and sal[0] == 0.5


def test_saliency_uniform_attention_everywhere():
    rng = np.random.default_rng(13)
    h = rng.standard_normal(4)
    bag = make_bag([np.vstack([h, h]), np.vstack([h, h])])
    out = wsi_encode(batch_of(bag), None, random_params(rng, 2, 4), CFG)
    assert np.array_equal(instance_saliency(out), np.full(4, 0.5))


def test_saliency_range_and_modes():
    rng = np.random.default_rng(14)
    bag = make_bag([rng.standard_normal((4, 5)) for _ in range(3)])
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    out = wsi_encode(batch_of(bag), t, random_params(rng, 3, 5), CFG)
    for mode in ("multiplicative", "instance-only"):
        flat = instance_saliency(out, mode)
        assert flat.min() >= 0.0 and flat.max() <= 1.0
        assert flat.min() == 0.0 and flat.max() == 1.0
    with pytest.raises(ConfigError):
        instance_saliency(out, "nonsense")


def test_saliency_planted_signal_above_background():
    # guidance aligned with the generator's planted prototype must push
    # signal instances above the background median, for any gate params
    from textmil.data import GeneratorSpec, build_dataset
    spec = GeneratorSpec(seed=5, dim=16, slides_per_class=4, noise_std=0.08,
                         regions_min=3, regions_max=3, instances_min=6, instances_max=6,
                         tumor_region_fraction=0.4, tumor_instance_fraction=0.5,
                         region_tokens=2, slide_tokens=2, test_per_class=1, val_per_class=1)
    ds = build_dataset(spec)
    guidance = ds.prototypes[1][None]
    rng = np.random.default_rng(0)
    params = random_params(rng, 4, 16)
    checked = 0
    for bag in ds.bags:
        truth = bag.flat_mask()
        if truth.sum() == 0:
            continue
        out = wsi_encode(batch_of(bag), guidance, params, CFG)
        sal = instance_saliency(out)
        assert sal[truth == 1].min() > np.median(sal[truth == 0])
        checked += 1
    assert checked == spec.slides_per_class


def test_attention_record_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    bag = make_bag([rng.standard_normal((3, 5)) for _ in range(2)])
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    out = wsi_encode(batch_of(bag), t, random_params(rng, 3, 5), CFG)
    [record] = attention_records(out)
    # weights sum to one per softmax group
    assert sum(r["weight"] for r in record["regions"]) == pytest.approx(1.0, abs=1e-9)
    for r in record["regions"]:
        assert sum(i["weight"] for i in r["instances"]) == pytest.approx(1.0, abs=1e-9)
    # coordinates bijective with the bag
    rec_coords = {tuple(r["coord"]) for r in record["regions"]}
    assert rec_coords == {r.coord for r in bag.regions}
    for r, region in zip(record["regions"], bag.regions):
        assert [tuple(i["coord"]) for i in r["instances"]] == region.instance_coords
    # JSON round trip preserves the record exactly
    path = tmp_path / "attn.json"
    path.write_text(json.dumps(record, sort_keys=True))
    assert json.loads(path.read_text()) == json.loads(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# bag files


def test_bag_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    bag = make_bag([rng.standard_normal((2, 4)) for _ in range(2)], label=1, slide_id="x1")
    bag.regions[0].mask = np.array([1, 0])
    bag.regions[1].mask = np.array([0, 0])
    save_bag(bag, tmp_path / "x1.json")
    loaded = load_bag(tmp_path / "x1.json")
    assert loaded.slide_id == "x1" and loaded.label == 1
    assert np.array_equal(loaded.regions[0].embeddings, bag.regions[0].embeddings)
    assert np.array_equal(loaded.flat_mask(), np.array([1, 0, 0, 0]))


def test_bag_file_rows_are_bit_exact(tmp_path):
    rng = np.random.default_rng(25)
    bag = make_bag([rng.standard_normal((3, 4)), rng.standard_normal((1, 4))], slide_id="x5")
    bag.regions[0].embeddings[0] = [-0.0, 5e-324, 1e150, 0.1]
    save_bag(bag, tmp_path / "x5.json")
    raw = json.loads((tmp_path / "x5.json").read_text())
    assert raw["regions"][0]["embeddings"]["dtype"] == "<f8"
    assert raw["regions"][0]["embeddings"]["shape"] == [3, 4]
    assert all("embedding" not in inst for r in raw["regions"] for inst in r["instances"])
    loaded = load_bag(tmp_path / "x5.json")
    for a, b in zip(loaded.regions, bag.regions):
        assert a.embeddings.dtype == np.float64 and a.embeddings.flags.writeable
        assert a.embeddings.tobytes() == b.embeddings.tobytes()


def test_bag_file_with_embedding_lists_loads(tmp_path):
    """The per-instance number lists of hand-written bag files still load."""
    rng = np.random.default_rng(26)
    bag = make_bag([rng.standard_normal((2, 3)), rng.standard_normal((3, 3))], slide_id="x6")
    bag.regions[0].mask = np.array([1, 0])
    bag.regions[1].mask = np.array([0, 0, 1])
    save_bag(bag, tmp_path / "block.json")
    raw = json.loads((tmp_path / "block.json").read_text())
    for region, r in zip(raw["regions"], bag.regions):
        del region["embeddings"]
        for inst, row in zip(region["instances"], r.embeddings.tolist()):
            inst["embedding"] = row
    (tmp_path / "lists.json").write_text(json.dumps(raw))
    a, b = load_bag(tmp_path / "block.json"), load_bag(tmp_path / "lists.json")
    for ra, rb in zip(a.regions, b.regions):
        assert np.array_equal(ra.embeddings, rb.embeddings)
        assert np.array_equal(ra.mask, rb.mask) and ra.instance_coords == rb.instance_coords


@pytest.mark.parametrize("field,value,message", [
    ("dtype", "<f4", "dtype"),
    ("shape", [3, 4], "does not hold 2 instance rows"),
    ("shape", [2], "does not hold 2 instance rows"),
    ("shape", [2, 3], "bytes"),
    ("base64", "not base64!", "malformed bag file"),
])
def test_bag_file_rejects_malformed_embedding_block(tmp_path, field, value, message):
    rng = np.random.default_rng(27)
    save_bag(make_bag([rng.standard_normal((2, 4))], slide_id="x7"), tmp_path / "x7.json")
    raw = json.loads((tmp_path / "x7.json").read_text())
    raw["regions"][0]["embeddings"][field] = value
    (tmp_path / "x7.json").write_text(json.dumps(raw))
    with pytest.raises(DataError, match=message):
        load_bag(tmp_path / "x7.json")


def test_bag_validation_duplicate_coords(tmp_path):
    rng = np.random.default_rng(17)
    bag = make_bag([rng.standard_normal((2, 4))])
    bag.regions[0].instance_coords = [(0, 0), (0, 0)]
    save_bag(bag, tmp_path / "bad.json")
    with pytest.raises(DataError):
        load_bag(tmp_path / "bad.json")


def test_bag_validation_mask_alignment():
    rng = np.random.default_rng(18)
    bag = make_bag([rng.standard_normal((3, 4))])
    bag.regions[0].mask = np.array([1, 0])
    from textmil.hierpool import validate_bag
    with pytest.raises(DataError):
        validate_bag(bag)


@pytest.mark.parametrize("mask,ok", [([1, 0, 1], True), ([0, 0, 0], True), ([1, 2, 0], False),
                                     ([0, -1, 1], False), ([0.0, 0.5, 1.0], False)])
def test_bag_validation_mask_values(mask, ok):
    rng = np.random.default_rng(18)
    bag = make_bag([rng.standard_normal((3, 4))])
    bag.regions[0].mask = np.array(mask)
    from textmil.hierpool import validate_bag
    if ok:
        assert validate_bag(bag) is bag
    else:
        with pytest.raises(DataError, match="mask entries must be 0 or 1"):
            validate_bag(bag)


def test_bag_save_over_existing_writes_new_file(tmp_path):
    rng = np.random.default_rng(19)
    bag = make_bag([rng.standard_normal((2, 4)) for _ in range(2)], slide_id="x2")
    fresh, path = tmp_path / "fresh.json", tmp_path / "x2.json"
    save_bag(bag, fresh)
    path.write_text("stale contents\n")
    with path.open() as old:  # keeps the old inode allocated
        save_bag(bag, path)
        assert path.stat().st_ino != os.fstat(old.fileno()).st_ino
        assert old.read() == "stale contents\n"
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bag_validation_rejects_non_finite(bad):
    rng = np.random.default_rng(20)
    bag = make_bag([rng.standard_normal((2, 4)), rng.standard_normal((3, 4))], slide_id="x3")
    bag.regions[1].embeddings[2, 1] = bad
    from textmil.hierpool import validate_bag
    with pytest.raises(DataError, match="slide x3 region 1"):
        validate_bag(bag)


def test_refinement_score_matrix_matches_rows():
    rng = np.random.default_rng(21)
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    H = np.vstack([0.9 * t + 0.1 * rng.standard_normal(5), rng.standard_normal((3, 5)),
                   np.zeros((1, 5))])
    scores = refinement_score(H, t, CFG)
    assert scores.shape == (5,)
    for j in range(5):
        assert scores[j] == pytest.approx(refinement_score(H[j][None], t, CFG)[0], abs=1e-12)
    assert scores[0] > CFG.threshold and scores[4] == 0.0
    assert not refinement_score(H, None, CFG).any()


def test_refinement_score_detached_records_nothing():
    rng = np.random.default_rng(22)
    tape = tp.Tape()
    t = tape.param(tp.l2_normalize(rng.standard_normal((1, 4))))
    H = tape.param(np.vstack([tp.value(t), rng.standard_normal(4)]))
    detached = RefinementConfig(factor=10.0, threshold=0.2, gradient="detached")
    assert not isinstance(refinement_score(H, t, detached), tp.Node)
    assert isinstance(refinement_score(H, t, CFG), tp.Node)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_bag_rejects_non_finite_and_keeps_the_old_file(tmp_path, bad):
    rng = np.random.default_rng(23)
    bag = make_bag([rng.standard_normal((2, 4))], slide_id="x4")
    path = tmp_path / "x4.json"
    save_bag(bag, path)
    before = path.read_bytes()
    bag.regions[0].embeddings[1, 2] = bad
    with pytest.raises(NumericError, match="x4.json"):
        save_bag(bag, path)
    assert path.read_bytes() == before


def test_save_attention_record_rejects_non_finite(tmp_path):
    rng = np.random.default_rng(24)
    out = wsi_encode(batch_of(make_bag([rng.standard_normal((3, 5))])), None,
                     random_params(rng, 3, 5), CFG)
    [record] = attention_records(out)
    record["regions"][0]["instances"][1]["saliency"] = float("nan")
    path = tmp_path / "attn.json"
    with pytest.raises(NumericError, match="attn.json"):
        hierpool.write_json(path, record)
    assert not path.exists()


# ---------------------------------------------------------------------------
# batches


def mixed_bags(rng, dim=5):
    """Slides with different region counts, among them a one-instance
    region and a one-region slide."""
    layouts = ([3, 1, 4], [2], [1], [4, 2, 3, 2])  # instances per region
    return [make_bag([rng.standard_normal((n, dim)) for n in layout], label=s % 2,
                     slide_id=f"s{s}")
            for s, layout in enumerate(layouts)]


def pooled(out):
    """Every per-row output of a pooling pass, as plain arrays."""
    return {"slides": np.asarray(tp.value(out.slide.embedding)),
            "region_weights": out.slide.weights,
            "instance_weights": out.region.weights,
            "saliency": instance_saliency(out)}


def test_batch_layout():
    bags = mixed_bags(np.random.default_rng(29))
    batch = BagBatch.of(bags)
    assert batch.n_instances == 22 and len(batch.bags) == 4
    assert batch.regions.offsets.tolist() == [0, 3, 4, 8, 10, 11, 15, 17, 20, 22]
    assert batch.slides.offsets.tolist() == [0, 3, 4, 5, 9]
    assert batch.slide_row_offsets().tolist() == [0, 8, 10, 11, 22]
    assert batch.labels.tolist() == [0, 1, 0, 1]
    assert np.array_equal(batch.rows[8:10], bags[1].regions[0].embeddings)


def test_batch_checks_its_layout_and_norms_once(monkeypatch):
    """A batch holds checked segments and its rows' norms. A pass over it
    builds no segments, hands the region level's refinement the batch's
    norms, and scores as the rows' own norms would."""
    rng = np.random.default_rng(31)
    batch = BagBatch.of(mixed_bags(rng))
    assert (batch.regions.n_rows, batch.slides.n_rows) == (22, 9)
    assert batch.regions.counts.tolist() == [3, 1, 4, 2, 1, 4, 2, 3, 2]
    assert batch.norms.tobytes() == np.linalg.norm(batch.rows, axis=1).tobytes()
    t, params = rng.standard_normal((1, 5)), init_attention(3, 4, 5)
    cfg = RefinementConfig()
    expected = tp.refine_scores(batch.rows, t, cfg.factor, cfg.threshold)
    built, given_norms, refine_scores = [], [], tp.refine_scores

    def refine(x, t, factor, threshold, norms=None):
        given_norms.append(norms)
        return refine_scores(x, t, factor, threshold, norms)

    monkeypatch.setattr(tp, "Segments", lambda *a: built.append(a))
    monkeypatch.setattr(tp, "refine_scores", refine)
    out = wsi_encode(batch, t, params, cfg)
    assert built == [] and len(given_norms) == 2
    assert given_norms[0] is batch.norms and given_norms[1] is None  # region rows, then slides
    assert out.region.scores.tobytes() == expected.tobytes()


@pytest.mark.parametrize("guided", [True, False])
def test_multi_slide_batch_matches_per_slide_batches(guided):
    rng = np.random.default_rng(30)
    bags = mixed_bags(rng)
    t = tp.l2_normalize(rng.standard_normal((1, 5))) if guided else None
    params = random_params(rng, 4, 5)
    together = pooled(wsi_encode(BagBatch.of(bags), t, params, CFG))
    alone = [pooled(wsi_encode(batch_of(b), t, params, CFG)) for b in bags]
    for key, got in together.items():
        assert np.abs(got - np.concatenate([a[key] for a in alone])).max() <= 1e-12, key


def test_batch_bags_cuts_at_the_row_limit(monkeypatch):
    rng = np.random.default_rng(31)
    layouts = ([2, 1], [2], [4, 3], [1], [3, 1])  # 3, 2, 7, 1 and 4 rows
    bags = [make_bag([rng.standard_normal((n, 5)) for n in layout], slide_id=f"s{s}")
            for s, layout in enumerate(layouts)]
    assert len(list(batch_bags(bags))) == 1
    monkeypatch.setattr(hierpool, "MAX_BATCH_ROWS", 5)
    batches = list(batch_bags(bags))
    assert [[b.slide_id for b in batch.bags] for batch in batches] == \
        [["s0", "s1"], ["s2"], ["s3", "s4"]]  # the 7-row slide forms its own batch
    assert [batch.n_instances for batch in batches] == [5, 7, 5]
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    whole = pooled(wsi_encode(BagBatch.of(bags), t, params, CFG))
    parts = [pooled(wsi_encode(batch, t, params, CFG)) for batch in batches]
    for key, got in whole.items():
        assert np.abs(got - np.concatenate([p[key] for p in parts])).max() <= 1e-12, key


def test_slide_permutation_within_a_batch():
    rng = np.random.default_rng(32)
    bags = mixed_bags(rng)
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    base = wsi_encode(BagBatch.of(bags), t, params, CFG)
    perm = [2, 0, 3, 1]
    out = wsi_encode(BagBatch.of([bags[i] for i in perm]), t, params, CFG)
    assert np.abs(np.asarray(out.slide.embedding)
                  - np.asarray(base.slide.embedding)[perm]).max() <= 1e-9
    rows = [np.arange(*base.batch.slide_row_offsets()[s:s + 2]) for s in perm]
    assert np.abs(instance_saliency(out) - instance_saliency(base)[np.concatenate(rows)]).max() \
        <= 1e-9


def test_batch_rejects_empty_inputs():
    with pytest.raises(DataError):
        BagBatch.of([])
    assert list(batch_bags([])) == []


def test_frozen_pass_reproduces_the_pass_it_freezes(monkeypatch):
    """Pooling with `frozen=` an earlier pass at the same parameters gives
    that pass bit for bit, probabilities and both levels' scores; with the
    attention weights and the guidance on a tape it records no
    refine_scores node, where the pass it freezes records one per level."""
    rng = np.random.default_rng(33)
    batch = BagBatch.of(mixed_bags(rng))
    t = tp.l2_normalize(rng.standard_normal((1, 5)))
    params = random_params(rng, 4, 5)
    classes = tp.l2_normalize(rng.standard_normal((2, 5)))
    first = wsi_encode(batch, t, params, CFG)
    again = wsi_encode(batch, t, params, CFG, frozen=first)
    assert first.region.scores.any() and first.slide.scores.any()
    assert np.array_equal(again.region.scores, first.region.scores)
    assert np.array_equal(again.slide.scores, first.slide.scores)
    assert np.array_equal(class_probabilities(again.slide.embedding, classes, 0.1),
                          class_probabilities(first.slide.embedding, classes, 0.1))

    recorded, refine_scores = [], tp.refine_scores

    def counted(*args):
        out = refine_scores(*args)
        recorded.append(isinstance(out, tp.Node))
        return out

    monkeypatch.setattr(tp, "refine_scores", counted)
    tape = tp.Tape()
    nodes = AttentionParams(*(tape.param(getattr(params, f)) for f in AttentionParams.FIELDS))
    guidance = tape.param(t)
    wsi_encode(batch, guidance, nodes, CFG)
    assert recorded == [True, True]
    recorded.clear()
    wsi_encode(batch, guidance, nodes, CFG, frozen=first)
    assert recorded == []
