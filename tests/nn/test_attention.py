"""Multi-head self-attention."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import LayerNorm, MultiHeadSelfAttention
from repro.nn.attention import default_head_dim


@pytest.fixture()
def rng():
    return np.random.default_rng(9)


def make(dim=8, heads=2, rng=None, **kw):
    layer = MultiHeadSelfAttention(dim, heads, dropout=0.0,
                                   rng=rng or np.random.default_rng(0), **kw)
    layer.norm = LayerNorm(dim)  # the post-norm every caller passes in
    layer.eval()
    return layer


def attend(layer, x, attention_mask=None):
    return layer(Tensor(x) if isinstance(x, np.ndarray) else x,
                 attention_mask=attention_mask, post_norm=layer.norm)


def test_output_shape(rng):
    layer = make()
    assert attend(layer, rng.normal(size=(3, 5, 8))).shape == (3, 5, 8)


def test_indivisible_dim_supported(rng):
    """Table II's BERT: hidden 128 with 6 heads (not divisible)."""
    layer = make(dim=128, heads=6)
    assert layer.head_dim == default_head_dim(128, 6) == 22
    assert attend(layer, rng.normal(size=(2, 4, 128))).shape == (2, 4, 128)


def test_explicit_head_dim(rng):
    layer = make(dim=8, heads=2, head_dim=16)
    assert layer.query.out_features == 32
    assert attend(layer, rng.normal(size=(1, 3, 8))).shape == (1, 3, 8)


def test_padding_mask_blocks_information(rng):
    """Changing a masked position must not change unmasked outputs."""
    layer = make()
    x = rng.normal(size=(1, 5, 8))
    mask = np.array([[True, True, True, False, False]])
    base = attend(layer, x, attention_mask=mask).data.copy()
    x_perturbed = x.copy()
    x_perturbed[0, 4] += 10.0  # masked position
    perturbed = attend(layer, x_perturbed, attention_mask=mask).data
    np.testing.assert_allclose(base[0, :3], perturbed[0, :3], atol=1e-5)


def test_no_mask_attends_everywhere(rng):
    layer = make()
    x = rng.normal(size=(1, 4, 8))
    base = attend(layer, x).data.copy()
    x2 = x.copy()
    x2[0, 3] += 5.0
    assert not np.allclose(base[0, 0], attend(layer, x2).data[0, 0], atol=1e-4)


def test_gradients(rng):
    layer = make(dim=4, heads=2)
    for p in layer.parameters():
        p.data = p.data.astype(np.float64)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    mask = np.array([[True, True, False], [True, True, True]])
    check_gradients(lambda: (attend(layer, x, attention_mask=mask) ** 2).sum(),
                    [x] + layer.parameters(), atol=3e-4)


def test_bad_mask_shape(rng):
    layer = make()
    with pytest.raises(ValueError, match="attention_mask"):
        attend(layer, rng.normal(size=(2, 5, 8)), attention_mask=np.ones((2, 4), bool))


def test_bad_heads():
    with pytest.raises(ValueError):
        MultiHeadSelfAttention(8, 0)


def test_permutation_equivariance_without_positions(rng):
    """Self-attention (no positional encoding) commutes with permutations;
    the row-wise post-norm keeps that."""
    layer = make()
    x = rng.normal(size=(1, 4, 8))
    perm = np.array([2, 0, 3, 1])
    out = attend(layer, x).data
    out_perm = attend(layer, x[:, perm]).data
    np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-5)
