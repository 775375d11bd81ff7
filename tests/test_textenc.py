import json
from pathlib import Path

import numpy as np
import pytest

from textmil import tape as tp
from textmil.errors import DataError, NumericError
from textmil.ssf import SsfParams, build_sites
from textmil.textenc import (ClassPrompt, PromptSet, build_prompt, build_stack, encode,
                             encode_prefix, load_prompts, merge_reparam, refinement_embedding,
                             save_prompts)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_encode.json").read_text())


def golden_stack():
    return build_stack(GOLDEN["stack_seed"], GOLDEN["blocks"], GOLDEN["dim"],
                       GOLDEN["mlp_hidden"])


def golden_tokens():
    rng = np.random.default_rng(GOLDEN["tokens_seed"])
    return rng.standard_normal((GOLDEN["n_tokens"], GOLDEN["dim"])) / 8.0


def make_prompt(n_region=3, n_slide=2, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return ClassPrompt(class_id=0, name="c0",
                       region_tokens=rng.standard_normal((n_region, dim)),
                       slide_tokens=rng.standard_normal((n_slide, dim)))


# ---------------------------------------------------------------------------
# prompt concatenation


def test_build_prompt_region_first():
    p = make_prompt(3, 2)
    seq = build_prompt(p)
    assert seq.shape == (5, 8)
    assert np.array_equal(seq[:3], p.region_tokens)
    assert np.array_equal(seq[3:], p.slide_tokens)


def test_build_prompt_pure():
    p = make_prompt()
    assert np.array_equal(build_prompt(p), build_prompt(p))


def test_build_prompt_single_token_each():
    assert build_prompt(make_prompt(1, 1)).shape == (2, 8)


def test_build_prompt_rejects_empty():
    p = make_prompt()
    p.region_tokens = np.empty((0, 8))
    with pytest.raises(DataError):
        build_prompt(p)


def test_prompt_file_round_trip(tmp_path):
    prompts = PromptSet(classes=[make_prompt(seed=1), make_prompt(seed=2)], tumor_class=1)
    prompts.classes[1].class_id = 1
    save_prompts(prompts, tmp_path / "p.json")
    loaded = load_prompts(tmp_path / "p.json")
    assert loaded.tumor_class == 1
    assert len(loaded.classes) == 2
    assert np.array_equal(loaded.classes[0].region_tokens, prompts.classes[0].region_tokens)


# ---------------------------------------------------------------------------
# encode


def test_encode_golden_snapshot():
    out = encode(golden_stack(), golden_tokens(), sites=None)
    assert np.abs(out - np.array(GOLDEN["output"])).max() <= 1e-12


def test_encode_unit_norm():
    rng = np.random.default_rng(9)
    stack = build_stack(1, 4, 16, 16)
    for _ in range(5):
        out = encode(stack, rng.standard_normal((4, 16)), sites=None)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_encode_token_order_invariant():
    stack = golden_stack()
    tokens = golden_tokens()
    perm = np.random.default_rng(0).permutation(tokens.shape[0])
    a = encode(stack, tokens, sites=None)
    b = encode(stack, tokens[perm], sites=None)
    assert np.abs(a - b).max() <= 1e-12


def test_encode_dim_mismatch():
    with pytest.raises(DataError):
        encode(golden_stack(), np.ones((3, 7)), sites=None)


def test_identity_ssf_bitwise_neutral():
    stack = golden_stack()
    tokens = golden_tokens()
    sites = build_sites(0, stack.n_blocks, stack.n_blocks, stack.dim, 0.0)
    assert np.array_equal(encode(stack, tokens, sites=None),
                          encode(stack, tokens, sites=sites))


def test_frozen_stack_reproducible_across_builds():
    a = encode(golden_stack(), golden_tokens(), sites=None)
    b = encode(golden_stack(), golden_tokens(), sites=None)
    assert np.array_equal(a, b)


def test_frozen_weights_never_enter_tape():
    stack = build_stack(3, 3, 8, 8)
    sites = build_sites(4, 3, 1, 8, 0.05)
    t = tp.Tape()
    bound = [type(s)(s.block, s.kind, SsfParams(t.param(s.params.gamma), t.param(s.params.beta)))
             for s in sites]
    out = encode(stack, np.random.default_rng(0).standard_normal((3, 8)), sites=bound)
    trainable_nodes = 2 * 2  # one adapted block, two sites, gamma+beta
    # every leaf on the tape is a bound adapter vector; no backbone array
    nodes, todo = {}, [out]
    while todo:
        for parent, _ in todo.pop().pulls:
            if parent.index not in nodes:
                nodes[parent.index] = parent
                todo.append(parent)
    leaves = [n for n in nodes.values() if not n.pulls]
    assert len(leaves) == trainable_nodes
    for leaf in leaves:
        for arr in stack.weight_arrays():
            assert leaf.value is not arr


def test_depth_sweep_agreement_with_identity_extras():
    stack = build_stack(7, 6, 8, 8)
    tokens = np.random.default_rng(1).standard_normal((4, 8))
    deep = build_sites(5, 6, 6, 8, 0.1)     # trainable everywhere
    shallow = build_sites(5, 6, 1, 8, 0.1)  # trainable on the last block only
    # force the deep configuration to identity outside the last block and
    # copy the shallow block-6 parameters into it
    for s in deep:
        if s.block < 6:
            s.params = SsfParams(np.ones(8), np.zeros(8))
    by_key = {(s.block, s.kind): s for s in shallow}
    for s in deep:
        if s.block == 6:
            s.params = by_key[(s.block, s.kind)].params
    a = encode(stack, tokens, sites=deep)
    b = encode(stack, tokens, sites=shallow)
    assert np.abs(a - b).max() <= 1e-12


# ---------------------------------------------------------------------------
# refinement embedding


def test_refinement_single_class():
    v = tp.l2_normalize(np.array([1.0, 2.0, 3.0]))
    assert refinement_embedding([v]) is v


def test_refinement_antipodal_degenerate():
    u = np.array([1.0, 0.0])
    assert refinement_embedding([u, -u]) is None


def test_refinement_binary_returns_tumor_embedding():
    normal = np.array([1.0, 0.0])
    tumor = np.array([0.0, 1.0])
    out = refinement_embedding([normal, tumor], tumor_index=1)
    assert out is tumor


def test_refinement_multiclass_mean_normalized():
    rng = np.random.default_rng(2)
    embs = [tp.l2_normalize(rng.standard_normal(8)) for _ in range(5)]
    out = refinement_embedding(embs)
    expected = np.mean(embs, axis=0)
    expected /= np.linalg.norm(expected)
    assert np.abs(out - expected).max() <= 1e-12


def test_refinement_tumor_index_out_of_range():
    with pytest.raises(DataError):
        refinement_embedding([np.ones(2)], tumor_index=3)


# ---------------------------------------------------------------------------
# merge


def test_merge_reparam_matches_composed_forward():
    stack = build_stack(11, 5, 12, 12)
    rng = np.random.default_rng(12)
    sites = build_sites(13, 5, 3, 12, 0.2)
    merged = merge_reparam(stack, sites)
    for _ in range(100):
        tokens = rng.standard_normal((3, 12))
        a = encode(stack, tokens, sites=sites)
        b = encode(merged, tokens, sites=None)
        assert np.abs(a - b).max() <= 1e-12


def test_merge_identity_bitwise():
    stack = build_stack(21, 3, 8, 8)
    sites = build_sites(0, 3, 3, 8, 0.0)
    merged = merge_reparam(stack, sites)
    for orig, new in zip(stack.blocks, merged.blocks):
        assert np.array_equal(orig.ln_gain, new.ln_gain)
        assert np.array_equal(orig.ln_bias, new.ln_bias)
        assert np.array_equal(orig.w2, new.w2)
        assert np.array_equal(orig.b2, new.b2)


def test_merge_rejects_unknown_site_kind():
    stack = build_stack(21, 3, 8, 8)
    sites = build_sites(0, 3, 3, 8, 0.0)
    sites[0].kind = "post_attention"
    with pytest.raises(DataError):
        merge_reparam(stack, sites)


# ---------------------------------------------------------------------------
# frozen prefix


@pytest.mark.parametrize("identity", [True, False])
def test_encode_from_prefix_bitwise(identity):
    # every depth 1..L, adapters at identity (init_std 0) or drawn
    stack = build_stack(31, 6, 8, 8)
    tokens = np.random.default_rng(3).standard_normal((5, 8))
    for depth in range(1, stack.n_blocks + 1):
        sites = build_sites(32, 6, depth, 8, 0.0 if identity else 0.1)
        full = encode(stack, tokens, sites=sites)
        for boundary in range(0, stack.n_blocks - depth + 1):  # every bare prefix
            prefix = encode_prefix(stack, tokens, boundary)
            assert prefix.shape == tokens.shape
            assert np.array_equal(encode(stack, prefix, sites=sites, start=boundary), full)


def test_encode_from_full_stack_prefix_runs_no_block():
    stack = golden_stack()
    prefix = encode_prefix(stack, golden_tokens(), stack.n_blocks)
    out = encode(stack, prefix, sites=None, start=stack.n_blocks)
    assert np.array_equal(out, encode(stack, golden_tokens(), sites=None))
    assert np.abs(out - np.array(GOLDEN["output"])).max() <= 1e-12


def test_encode_start_out_of_range():
    stack = golden_stack()
    with pytest.raises(ValueError):
        encode(stack, golden_tokens(), sites=None, start=stack.n_blocks + 1)
    with pytest.raises(ValueError):
        encode_prefix(stack, golden_tokens(), -1)


def test_save_prompts_rejects_non_finite(tmp_path):
    prompts = PromptSet(classes=[make_prompt(seed=3)], tumor_class=None)
    prompts.classes[0].slide_tokens[0, 1] = np.inf
    path = tmp_path / "p.json"
    with pytest.raises(NumericError, match="p.json"):
        save_prompts(prompts, path)
    assert not path.exists()
