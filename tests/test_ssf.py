import numpy as np
import pytest
from hypothesis import given, strategies as st

from textmil import tape as tp
from textmil.errors import ConfigError
from textmil.ssf import (SsfParams, attach_depth, build_sites, count_trainable,
                         merge_into_layernorm, merge_into_linear, ssf_forward)


def _identity(dim: int) -> SsfParams:
    return SsfParams(np.ones(dim), np.zeros(dim))


def test_forward_identity():
    out = ssf_forward(np.array([2.0, -1.0]), _identity(2))
    assert np.array_equal(out, np.array([2.0, -1.0]))


def test_forward_arithmetic():
    p = SsfParams(np.array([2.0, 3.0]), np.array([1.0, -1.0]))
    assert np.array_equal(ssf_forward(np.array([1.0, 2.0]), p), np.array([3.0, 5.0]))


def test_forward_dim_mismatch():
    with pytest.raises(ValueError):
        ssf_forward(np.ones(3), _identity(2))


def test_vjp_wrt_scale_is_cotangent_times_input():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    cot = rng.standard_normal(5)
    t = tp.Tape()
    gamma = t.param(rng.standard_normal(5))
    beta = t.param(rng.standard_normal(5))
    y = ssf_forward(x, SsfParams(gamma, beta))
    grads = t.backward(tp.dot(cot, y))
    assert np.abs(grads[gamma] - cot * x).max() <= 1e-14
    assert np.abs(grads[beta] - cot).max() <= 1e-14


def test_attach_depth_examples():
    assert attach_depth(12, 2) == [11, 12]
    assert attach_depth(12, 12) == list(range(1, 13))
    assert attach_depth(12, 8) == list(range(5, 13))


def test_attach_depth_exact_for_all_depths():
    for d in range(1, 13):
        blocks = attach_depth(12, d)
        assert blocks == list(range(12 - d + 1, 13))
        assert len(blocks) == d


def test_attach_depth_out_of_range():
    for bad in (0, 13, -1):
        with pytest.raises(ConfigError):
            attach_depth(12, bad)


def test_init_zero_std_is_exact_identity():
    for s in build_sites(7, n_blocks=2, depth=2, dim=4, init_std=0.0):
        assert np.array_equal(s.params.gamma, np.ones(4))
        assert np.array_equal(s.params.beta, np.zeros(4))


def test_init_sample_means():
    (p, _) = (s.params for s in build_sites(123, n_blocks=1, depth=1, dim=10_000,
                                            init_std=0.02))
    assert p.gamma.mean() == pytest.approx(1.0, abs=0.01)
    assert p.beta.mean() == pytest.approx(0.0, abs=0.01)


def test_init_deterministic():
    a = build_sites(99, n_blocks=2, depth=1, dim=16, init_std=0.02)
    b = build_sites(99, n_blocks=2, depth=1, dim=16, init_std=0.02)
    for x, y in zip(a, b):
        assert np.array_equal(x.params.gamma, y.params.gamma)
        assert np.array_equal(x.params.beta, y.params.beta)


def test_init_rejects_negative_std():
    with pytest.raises(ConfigError):
        build_sites(0, n_blocks=1, depth=1, dim=4, init_std=-0.1)


def test_build_sites_structure():
    sites = build_sites(5, n_blocks=12, depth=2, dim=8, init_std=0.02)
    assert [(s.block, s.kind) for s in sites] == [
        (11, "post_layernorm"), (11, "post_mlp"), (12, "post_layernorm"), (12, "post_mlp")]
    # each site draws from child (block - 1) * 2 + k of the seed's spawn
    # whatever the depth, so these pinned values never move
    pinned = [(1.0000088005892482, 0.010119030598779005, 1.032117441501816, -0.007173361484585794),
              (0.9798497069680588, 0.005308603245839336, 0.9731332725990177, -0.010282242501931101),
              (1.0033217952076834, 0.022510241636295173, 0.9858421868890556, -0.009874072505581217),
              (0.9816879647045406, 0.010592591905644868, 1.011476743475947, 0.02634710684420974)]
    for s, (g0, b0, g7, b7) in zip(sites, pinned):
        assert (s.params.gamma[0], s.params.beta[0], s.params.gamma[7], s.params.beta[7]) == \
            (g0, b0, g7, b7)


# ---------------------------------------------------------------------------
# re-parameterization


def test_merge_identity_is_bitwise_noop():
    rng = np.random.default_rng(3)
    gain, bias = rng.standard_normal(6), rng.standard_normal(6)
    g2, b2 = merge_into_layernorm(gain, bias, _identity(6))
    assert np.array_equal(g2, gain) and np.array_equal(b2, bias)
    w, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
    w2, bb = merge_into_linear(w, b, _identity(6))
    assert np.array_equal(w2, w) and np.array_equal(bb, b)


def test_merge_layernorm_equals_composition():
    rng = np.random.default_rng(4)
    gain, bias = rng.standard_normal(8), rng.standard_normal(8)
    p = SsfParams(1.0 + 0.3 * rng.standard_normal(8), 0.3 * rng.standard_normal(8))
    g2, b2 = merge_into_layernorm(gain, bias, p)
    for _ in range(50):
        x = rng.standard_normal(8)
        composed = ssf_forward(tp.layernorm(x, gain, bias), p)
        merged = tp.layernorm(x, g2, b2)
        assert np.abs(composed - merged).max() <= 1e-12


def test_merge_linear_equals_composition():
    rng = np.random.default_rng(5)
    w, b = rng.standard_normal((8, 5)), rng.standard_normal(8)
    p = SsfParams(1.0 + 0.3 * rng.standard_normal(8), 0.3 * rng.standard_normal(8))
    w2, b2 = merge_into_linear(w, b, p)
    for _ in range(50):
        x = rng.standard_normal(5)
        composed = ssf_forward(tp.add(tp.matvec(w, x), b), p)
        merged = tp.add(tp.matvec(w2, x), b2)
        assert np.abs(composed - merged).max() <= 1e-12


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_closed_form_no_attention():
    assert count_trainable(64, 2, 0, 64) == 512
    assert count_trainable(64, 1, 0, 64) == 256


def test_count_depth_zero_disallowed_by_attach():
    with pytest.raises(ConfigError):
        attach_depth(12, 0)


def test_count_hidden_unit_slope():
    # shared hidden width: one extra unit adds a row to all four gate
    # matrices plus one entry to each logit vector
    d_v = 64
    delta = count_trainable(64, 2, 33, d_v) - count_trainable(64, 2, 32, d_v)
    assert delta == 2 * (2 * d_v + 1)


def test_count_linear_in_depth():
    counts = [count_trainable(64, d, 32, 64) for d in range(1, 13)]
    slopes = np.diff(counts)
    assert (slopes == 2 * 64 * 2).all()
    assert all(b > a for a, b in zip(counts, counts[1:]))


@given(st.integers(2, 128), st.integers(1, 12), st.integers(1, 64))
def test_count_matches_acceptance_formula(dim, depth, hidden):
    assert count_trainable(dim, depth, hidden, dim) == \
        2 * dim * 2 * depth + 2 * (2 * hidden * dim + hidden)
