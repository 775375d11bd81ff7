import json
from dataclasses import replace
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


def weight_arrays(stack) -> list:
    """Every backbone array of `stack`: each block's layernorm and MLP
    arrays in turn, then the projection."""
    return [*(a for b in stack.blocks for a in (b.ln_gain, b.ln_bias, b.w1, b.b1, b.w2, b.b2)),
            stack.proj]


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
    """A class prompt is checked where it is made, so `build_prompt`
    never sees an empty or ragged one."""
    p = make_prompt()
    with pytest.raises(ValueError, match=r"classes\[0\].region_tokens must be a nonempty"):
        replace(p, region_tokens=np.empty((0, 8)))
    with pytest.raises(ValueError, match=r"classes\[0\].slide_tokens .* as wide as region_tokens"):
        replace(p, slide_tokens=np.ones((2, 7)))


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
    out = encode(golden_stack(), [golden_tokens()], sites=None)[0]
    assert np.abs(out - np.array(GOLDEN["output"])).max() <= 1e-12


def test_encode_unit_norm():
    rng = np.random.default_rng(9)
    stack = build_stack(1, 4, 16, 16)
    for _ in range(5):
        out = encode(stack, [rng.standard_normal((4, 16))], sites=None)[0]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_encode_token_order_invariant():
    stack = golden_stack()
    tokens = golden_tokens()
    perm = np.random.default_rng(0).permutation(tokens.shape[0])
    a = encode(stack, [tokens], sites=None)[0]
    b = encode(stack, [tokens[perm]], sites=None)[0]
    assert np.abs(a - b).max() <= 1e-12


def test_encode_dim_mismatch():
    with pytest.raises(DataError):
        encode(golden_stack(), [np.ones((3, 7))], sites=None)


def test_identity_ssf_bitwise_neutral():
    stack = golden_stack()
    tokens = golden_tokens()
    sites = build_sites(0, stack.n_blocks, stack.n_blocks, stack.dim, 0.0)
    assert np.array_equal(encode(stack, [tokens], sites=None)[0],
                          encode(stack, [tokens], sites=sites)[0])


def test_frozen_stack_reproducible_across_builds():
    a = encode(golden_stack(), [golden_tokens()], sites=None)[0]
    b = encode(golden_stack(), [golden_tokens()], sites=None)[0]
    assert np.array_equal(a, b)


def test_frozen_weights_never_enter_tape():
    stack = build_stack(3, 3, 8, 8)
    sites = build_sites(4, 3, 1, 8, 0.05)
    t = tp.Tape()
    bound = {key: SsfParams(t.param(p.gamma), t.param(p.beta)) for key, p in sites.items()}
    out = encode(stack, [np.random.default_rng(0).standard_normal((3, 8))], sites=bound)[0]
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
        for arr in weight_arrays(stack):
            assert leaf.value is not arr


def test_adapted_blocks_record_five_nodes():
    """An adapted block records its layernorm, two scale_shift sites, one
    mlp and the residual add, each over the token rows of every prompt at
    once. The first adapted block reads the constant frozen prefix, so its
    layernorm records nothing."""
    stack = build_stack(3, 4, 8, 8)
    tokens = np.random.default_rng(0).standard_normal((5, 8))
    t = tp.Tape()
    bound = {key: SsfParams(t.param(p.gamma), t.param(p.beta))
             for key, p in build_sites(4, 4, 2, 8, 0.05).items()}
    for x, start in [(tokens, 0), (encode_prefix(stack, tokens, 2), 2)]:
        for prompts in ([x], [x, x[:2], x[1:]]):
            before = len(t)
            encode(stack, prompts, sites=bound, start=start)
            # then take_rows, pool, projection and l2_normalize, once per prompt
            assert len(t) - before == 4 + 5 + 4 * len(prompts)


def test_depth_sweep_agreement_with_identity_extras():
    stack = build_stack(7, 6, 8, 8)
    tokens = np.random.default_rng(1).standard_normal((4, 8))
    deep = build_sites(5, 6, 6, 8, 0.1)     # trainable everywhere
    shallow = build_sites(5, 6, 1, 8, 0.1)  # trainable on the last block only
    # force the deep configuration to identity outside the last block and
    # copy the shallow block-6 parameters into it
    for block, kind in deep:
        deep[block, kind] = (shallow[block, kind] if block == 6
                             else SsfParams(np.ones(8), np.zeros(8)))
    a = encode(stack, [tokens], sites=deep)[0]
    b = encode(stack, [tokens], sites=shallow)[0]
    assert np.abs(a - b).max() <= 1e-12


# ---------------------------------------------------------------------------
# refinement embedding


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
    """The tumor class is checked where a prompt set is made, so
    `refinement_embedding` never sees one out of range, nor one in a set
    of three classes or more, where it would be ignored."""
    classes = [replace(make_prompt(seed=c), class_id=c) for c in range(3)]
    with pytest.raises(ValueError, match=r"prompts.tumor_class .* got 3"):
        PromptSet(classes=classes[:2], tumor_class=3)
    with pytest.raises(ValueError, match=r"prompts.tumor_class .* got 2 with 3 classes"):
        PromptSet(classes=classes, tumor_class=2)
    with pytest.raises(ValueError, match="at least 2 classes, got 1"):
        PromptSet(classes=classes[:1])


# ---------------------------------------------------------------------------
# merge


def test_merge_reparam_matches_composed_forward():
    stack = build_stack(11, 5, 12, 12)
    rng = np.random.default_rng(12)
    sites = build_sites(13, 5, 3, 12, 0.2)
    merged = merge_reparam(stack, sites)
    for _ in range(100):
        tokens = rng.standard_normal((3, 12))
        a = encode(stack, [tokens], sites=sites)[0]
        b = encode(merged, [tokens], sites=None)[0]
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
    sites[1, "post_attention"] = sites.pop((1, "post_layernorm"))
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
        full = encode(stack, [tokens], sites=sites)[0]
        for boundary in range(0, stack.n_blocks - depth + 1):  # every bare prefix
            prefix = encode_prefix(stack, tokens, boundary)
            assert prefix.shape == tokens.shape
            assert np.array_equal(encode(stack, [prefix], sites=sites, start=boundary)[0], full)


def test_encode_from_full_stack_prefix_runs_no_block():
    stack = golden_stack()
    prefix = encode_prefix(stack, golden_tokens(), stack.n_blocks)
    out = encode(stack, [prefix], sites=None, start=stack.n_blocks)[0]
    assert np.array_equal(out, encode(stack, [golden_tokens()], sites=None)[0])
    assert np.abs(out - np.array(GOLDEN["output"])).max() <= 1e-12


def test_encode_start_out_of_range():
    stack = golden_stack()
    with pytest.raises(ValueError):
        encode(stack, [golden_tokens()], sites=None, start=stack.n_blocks + 1)
    with pytest.raises(ValueError):
        encode_prefix(stack, golden_tokens(), -1)


def test_save_prompts_rejects_non_finite(tmp_path):
    prompts = PromptSet(classes=[make_prompt(seed=3), make_prompt(seed=4)], tumor_class=None)
    prompts.classes[0].slide_tokens[0, 1] = np.inf
    path = tmp_path / "p.json"
    with pytest.raises(NumericError, match="p.json"):
        save_prompts(prompts, path)
    assert not path.exists()
