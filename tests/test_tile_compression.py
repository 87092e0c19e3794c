"""Unit + property tests for low-rank compression primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CompressionError
from repro.kernels import ExponentialKernel
from repro.ordering import order_points
from repro.tile.compression import (
    RESIDUAL_SHARE,
    SKETCH_PAD,
    compress_many,
    compress_or_rank,
    rank_of_block,
    recompress,
    truncated_svd,
)


def low_rank_matrix(rng, m=30, n=24, rank=5, scale=1.0):
    return scale * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))


class TestTruncatedSVD:
    def test_error_within_tolerance(self, rng):
        a = rng.standard_normal((30, 30))
        tol = 0.5 * np.linalg.norm(a)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol + 1e-12
        assert err <= tol

    def test_exact_rank_recovery(self, rng):
        a = low_rank_matrix(rng, rank=4)
        u, v, err = truncated_svd(a, 1e-10)
        assert u.shape[1] == 4
        assert err < 1e-10

    def test_zero_matrix_rank_zero(self):
        u, v, err = truncated_svd(np.zeros((8, 6)), 1e-12)
        assert u.shape == (8, 0) and v.shape == (6, 0)
        assert err == 0.0

    def test_max_rank_violation_raises(self, rng):
        a = rng.standard_normal((20, 20))
        with pytest.raises(CompressionError):
            truncated_svd(a, 1e-14, max_rank=2)

    def test_rank_monotone_in_tolerance(self, rng):
        a = rng.standard_normal((25, 25))
        norm = np.linalg.norm(a)
        ranks = [
            truncated_svd(a, f * norm)[0].shape[1]
            for f in (1e-12, 1e-6, 1e-2, 0.5)
        ]
        assert ranks == sorted(ranks, reverse=True)

    @given(rank=st.integers(0, 8), tol_factor=st.floats(1e-10, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_property_error_bound(self, rank, tol_factor):
        rng = np.random.default_rng(rank * 1000 + 1)
        a = (
            low_rank_matrix(rng, rank=rank)
            if rank
            else np.zeros((30, 24))
        )
        a = a + 1e-6 * rng.standard_normal(a.shape)
        tol = tol_factor * max(np.linalg.norm(a), 1e-30)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol * (1 + 1e-9)


class TestRankOfBlock:
    def test_matches_truncated_svd(self, rng):
        a = rng.standard_normal((20, 20))
        tol = 0.1 * np.linalg.norm(a)
        u, _, _ = truncated_svd(a, tol)
        assert rank_of_block(a, tol) == u.shape[1]


class TestRecompress:
    def test_reduces_rank_of_padded_factors(self, rng):
        a = low_rank_matrix(rng, rank=3)
        u, v, _ = truncated_svd(a, 1e-12)
        # Pad with redundant columns.
        u_pad = np.hstack([u, u[:, :2]])
        v_pad = np.hstack([v, v[:, :2]])
        nu, nv = recompress(u_pad, v_pad, 1e-10)
        assert nu.shape[1] <= 3 + 1e-9
        np.testing.assert_allclose(nu @ nv.T, u_pad @ v_pad.T, atol=1e-8)

    def test_zero_rank_passthrough(self):
        u = np.zeros((5, 0))
        v = np.zeros((4, 0))
        nu, nv = recompress(u, v, 1e-8)
        assert nu.shape[1] == 0

    def test_error_bound(self, rng):
        u = rng.standard_normal((30, 10))
        v = rng.standard_normal((30, 10))
        a = u @ v.T
        tol = 0.05 * np.linalg.norm(a)
        nu, nv = recompress(u, v, tol)
        assert np.linalg.norm(a - nu @ nv.T) <= tol * (1 + 1e-9)

    def test_max_rank_enforced(self, rng):
        u = rng.standard_normal((20, 10))
        v = rng.standard_normal((20, 10))
        with pytest.raises(CompressionError):
            recompress(u, v, 1e-15, max_rank=2)


# ----------------------------------------------------------------------
# the certified range-finder compression
# ----------------------------------------------------------------------

def decaying_block(m, n, decay, seed, rank=None):
    """``m x n`` block with singular values ``decay**i`` (cut to exact
    rank ``rank`` when given) and seeded random singular vectors."""
    gen = np.random.default_rng([seed, m, n])
    k = min(m, n)
    uu, _ = np.linalg.qr(gen.standard_normal((m, k)))
    vv, _ = np.linalg.qr(gen.standard_normal((n, k)))
    s = decay ** np.arange(k)
    if rank is not None:
        s[rank:] = 0.0
    return np.ascontiguousarray((uu * s) @ vv.T)


def check_compressed(a, tol, cap):
    """The whole contract of ``compress_or_rank`` on one block, with
    ``truncated_svd`` / ``rank_of_block`` as oracle.  Returns which
    path produced the result."""
    rank, u, v, certified = compress_or_rank(a, tol, max_rank=cap)
    cap = min(cap, *a.shape)
    if u is None:
        assert not certified and rank > cap
        assert rank == rank_of_block(a, tol)
        return "over_cap"
    assert rank == u.shape[1] == v.shape[1] <= cap
    if not certified:
        # The exact path: truncated_svd's bytes.
        eu, ev, _ = truncated_svd(a, tol, cap)
        assert u.tobytes() == eu.tobytes() and v.tobytes() == ev.tobytes()
        return "fallback"
    assert cap + SKETCH_PAD < min(a.shape)  # where the sketch applies
    for factor, rows in ((u, a.shape[0]), (v, a.shape[1])):
        assert factor.dtype == np.float64 and factor.flags.c_contiguous
        assert factor.shape == (rows, rank)
    # The certificate, up to the rounding of measuring it.
    slack = 16 * np.finfo(np.float64).eps * np.linalg.norm(a)
    assert np.linalg.norm(a - u @ v.T) <= tol + slack
    # Eckart-Young below; above, the singular values of Q^T A never
    # exceed those of A and the truncation keeps (1 - share) of tol^2.
    # (1e-9: a knife-edge tail may round either way in the oracle.)
    assert rank_of_block(a, tol * (1 + 1e-9)) <= rank
    assert rank <= rank_of_block(
        a, tol * np.sqrt(1.0 - RESIDUAL_SHARE) * (1 - 1e-9)
    )
    return "certified"


class TestCertifiedCompression:
    @given(
        m=st.integers(6, 72),
        n=st.integers(6, 72),
        decay=st.floats(0.05, 0.95),
        rank_fraction=st.floats(0.0, 1.0),
        jitter=st.floats(0.01, 0.99),
        cap_delta=st.integers(-2, 16),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_property_against_the_svd_oracle(
        self, m, n, decay, rank_fraction, jitter, cap_delta, seed
    ):
        """Blocks of every shape (``m != n``, ragged) with the tolerance
        placed between two singular-value tails, so the SVD rank is the
        drawn one, and the cap placed around it: under, at, one over,
        and far enough over that the sketch is narrower than the block
        or is not."""
        a = decaying_block(m, n, decay, seed)
        k = min(m, n)
        rank = int(round(rank_fraction * k))
        tails = np.append(
            np.sqrt(np.cumsum(decay ** (2.0 * np.arange(k))[::-1])[::-1]), 0.0
        )
        above = tails[rank - 1] if rank else 2.0 * tails[0]
        tol = tails[rank] + jitter * (above - tails[rank])
        check_compressed(a, tol, int(np.clip(rank + cap_delta, 1, k)))

    @pytest.mark.parametrize("shape", [(60, 60), (60, 44), (44, 60), (32, 32)])
    def test_typical_tiles_are_certified(self, shape):
        """Fast decay, rank well under the cap: the sketch's case."""
        a = decaying_block(*shape, 0.3, seed=1)
        assert check_compressed(a, 1e-8, min(shape) // 2) == "certified"

    @pytest.mark.parametrize("shape", [(60, 60), (24, 60)])
    def test_zero_block_and_zero_tolerance(self, shape):
        cap = min(shape) // 2
        rank, u, v, _ = compress_or_rank(np.zeros(shape), 0.0, max_rank=cap)
        assert rank == 0 and u.shape == (shape[0], 0) and v.shape == (shape[1], 0)
        check_compressed(np.zeros(shape), 1e-8, cap)
        # tol = 0 on a nonzero block: nothing can be certified.
        a = decaying_block(*shape, 0.5, seed=2, rank=3)
        assert check_compressed(a, 0.0, cap) != "certified"

    def test_rank_exactly_at_and_one_over_the_cap(self):
        cap = 12
        flat = 1.0  # every kept singular value equal: no rank to spare
        at = decaying_block(48, 48, flat, seed=3, rank=cap)
        over = decaying_block(48, 48, flat, seed=3, rank=cap + 1)
        assert check_compressed(at, 1e-6, cap) in ("certified", "fallback")
        assert compress_or_rank(at, 1e-6, max_rank=cap)[0] == cap
        assert check_compressed(over, 1e-6, cap) == "over_cap"

    @pytest.mark.parametrize(
        "shape,cap", [((24, 24), 20), ((20, 60), 30), ((60, 60), None)]
    )
    def test_declines_where_the_sketch_is_no_narrower(self, shape, cap):
        """Small tiles, a ragged last tile, a cap near the tile size, no
        cap at all: the exact arithmetic, unchanged."""
        a = decaying_block(*shape, 0.4, seed=4)
        rank, u, v, certified = compress_or_rank(a, 1e-7, max_rank=cap)
        eu, ev, _ = truncated_svd(a, 1e-7)
        assert not certified and rank == eu.shape[1]
        assert u.tobytes() == eu.tobytes() and v.tobytes() == ev.tobytes()


def _covariance_blocks(tile, n=None):
    """Off-diagonal tiles of an exponential covariance on Morton-ordered
    points — near and far, and ragged when ``tile`` does not divide."""
    n = n or 6 * tile
    gen = np.random.default_rng(tile)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    sigma = ExponentialKernel().covariance_matrix(np.array([1.0, 0.1]), x)
    edges = list(range(0, n, tile)) + [n]
    return {
        (i, j): np.ascontiguousarray(
            sigma[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
        )
        for i in range(1, len(edges) - 1)
        for j in range(i)
    }


def _same(x, y):
    return x[0] == y[0] and x[3] == y[3] and all(
        (p is None and q is None)
        or (p is not None and q is not None and p.tobytes() == q.tobytes()
            and p.shape == q.shape)
        for p, q in zip(x[1:3], y[1:3])
    )


@pytest.mark.parametrize("tile,n", [(24, None), (32, None), (60, None), (60, 340)])
def test_compression_is_a_function_of_the_block_alone(tile, n):
    """Same bytes alone, at any position of any stack, per tile or
    batched, whatever the rank hint says."""
    blocks = _covariance_blocks(tile, n)
    keys = list(blocks)
    norm = np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks.values()))
    tol, cap = 1e-7 * norm / len(keys), tile // 2
    alone = {k: compress_or_rank(blocks[k], tol, max_rank=cap) for k in keys}
    paths = {
        "over_cap" if r[1] is None else "certified" if r[3] else "fallback"
        for r in alone.values()
    }
    assert "certified" in paths and "over_cap" in paths
    ranks = {k: r[0] for k, r in alone.items()}
    hint_sets = {
        "absent": None,
        "exact": ranks,
        "stale over the cap": {k: cap + 5 for k in keys},
        "stale under the cap": {k: 1 for k in keys},
    }
    for hints in hint_sets.values():
        for k in keys:
            hint = None if hints is None else hints[k]
            assert _same(
                compress_or_rank(blocks[k], tol, max_rank=cap, hint=hint),
                alone[k],
            )
        # Whole stack, reversed stack, and a few short ones.
        for order in (keys, keys[::-1], keys[1::3], keys[:2], keys[-1:]):
            many = compress_many(blocks, order, tol, max_rank=cap, hints=hints)
            assert list(many) and set(many) == set(order)
            assert all(_same(many[k], alone[k]) for k in order)
    # Nor on where the bytes live: an offset, strided view of them.
    for k in keys[:6]:
        a = blocks[k]
        wide = np.zeros((a.shape[0] + 1, a.shape[1] + 5))
        wide[1:, 3:3 + a.shape[1]] = a
        view = wide[1:, 3:3 + a.shape[1]]
        assert _same(compress_or_rank(view, tol, max_rank=cap), alone[k])
