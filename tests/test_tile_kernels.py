"""Tests for the tile numerical kernels (POTRF/TRSM/SYRK/GEMM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from repro.exceptions import (
    NotPositiveDefiniteError,
    NumericalCorruptionError,
    ShapeError,
)
from repro.tile import DenseTile, LowRankTile, Precision
from repro.tile import kernels as K
from repro.tile.compression import truncated_svd
from repro.tile.precision import cast_storage, compute_dtype


def spd(n, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def lr_tile(rng, m, n, rank, precision=Precision.FP64):
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    u, v, _ = truncated_svd(a, 1e-12)
    return LowRankTile(u, v, precision), a


class TestPotrf:
    def test_matches_numpy(self):
        a = spd(16)
        low = K.potrf(DenseTile(a))
        np.testing.assert_allclose(low.to_dense64(), np.linalg.cholesky(a), atol=1e-12)

    def test_indefinite_raises_with_index(self):
        a = -np.eye(4)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            K.potrf(DenseTile(a), index=(3, 3))
        assert exc.value.tile_index == (3, 3)

    def test_low_rank_input_rejected(self):
        with pytest.raises(ShapeError):
            K.potrf(LowRankTile(np.zeros((4, 1)), np.zeros((4, 1))))

    def test_fp32_storage_preserved(self):
        low = K.potrf(DenseTile(spd(8), Precision.FP32))
        assert low.precision is Precision.FP32


class TestTrsm:
    def test_dense_matches_reference(self, rng):
        low = np.linalg.cholesky(spd(10, 1))
        a = rng.standard_normal((10, 10))
        out = K.trsm(DenseTile(low), DenseTile(a))
        # A <- A L^{-T}
        expected = sla.solve_triangular(low, a.T, lower=True,
                                        check_finite=False).T
        np.testing.assert_allclose(out.to_dense64(), expected, atol=1e-12)

    def test_low_rank_only_touches_v(self, rng):
        low = np.linalg.cholesky(spd(10, 2))
        tile, dense = lr_tile(rng, 10, 10, 3)
        out = K.trsm(DenseTile(low), tile)
        assert isinstance(out, LowRankTile)
        assert out.rank == 3
        expected = sla.solve_triangular(low, dense.T, lower=True,
                                        check_finite=False).T
        np.testing.assert_allclose(out.to_dense64(), expected, atol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rank", [0, 1, 5])
    @pytest.mark.parametrize("tri", [Precision.FP64, Precision.FP32])
    @pytest.mark.parametrize("factor", [Precision.FP64, Precision.FP32])
    def test_low_rank_solve_bytes_are_solve_triangular(
            self, rng, factor, tri, rank, order):
        """The low-rank branch calls LAPACK ``trtrs`` itself: the same
        routine, on the same operands, as ``solve_triangular``."""
        low = DenseTile(np.asarray(
            np.linalg.cholesky(spd(12, 4)), order=order), tri)
        tile, _ = lr_tile(rng, 12, 12, max(rank, 1), factor)
        tile = LowRankTile(tile.u[:, :rank], tile.v[:, :rank], factor)
        out = K.trsm(low, tile)
        if rank == 0:
            assert out is tile
            return
        want = sla.solve_triangular(
            low.to_dense64(), np.asarray(tile.v, dtype=np.float64),
            lower=True, check_finite=False,
        )
        assert out.precision is factor and out.rank == rank
        assert out.v.tobytes() == cast_storage(want, factor).tobytes()
        assert out.u.tobytes() == tile.u.tobytes()

    def test_zero_rank_passthrough(self):
        low = DenseTile(np.eye(4))
        tile = LowRankTile(np.zeros((4, 0)), np.zeros((4, 0)))
        assert K.trsm(low, tile) is tile

    def test_lr_triangle_rejected(self, rng):
        tile, _ = lr_tile(rng, 4, 4, 1)
        with pytest.raises(ShapeError):
            K.trsm(tile, DenseTile(np.zeros((4, 4))))

    def test_fp16_storage_quantizes(self, rng):
        low = np.linalg.cholesky(spd(8, 3))
        a = rng.standard_normal((8, 8))
        out = K.trsm(DenseTile(low), DenseTile(a, Precision.FP16))
        assert out.precision is Precision.FP16
        # Values must be exactly representable in fp16.
        d = out.to_dense64()
        d16 = d.astype(np.float16)  # lint: ignore[LINT005] — representability check
        np.testing.assert_array_equal(d, d16.astype(np.float64))


class TestSyrk:
    def test_dense(self, rng):
        c = spd(8, 4)
        a = rng.standard_normal((8, 8))
        out = K.syrk(DenseTile(a), DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c - a @ a.T, atol=1e-12)

    def test_low_rank_input(self, rng):
        c = spd(10, 5)
        tile, dense = lr_tile(rng, 10, 10, 2)
        out = K.syrk(tile, DenseTile(c))
        np.testing.assert_allclose(
            out.to_dense64(), c - dense @ dense.T, atol=1e-10
        )

    def test_zero_rank_noop(self):
        c = DenseTile(spd(6, 6))
        tile = LowRankTile(np.zeros((6, 0)), np.zeros((6, 0)))
        assert K.syrk(tile, c) is c

    def test_lr_output_rejected(self, rng):
        tile, _ = lr_tile(rng, 4, 4, 1)
        with pytest.raises(ShapeError):
            K.syrk(DenseTile(np.zeros((4, 4))), tile)


class TestGemmDenseOutput:
    def test_all_dense(self, rng):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 6))
        out = K.gemm(DenseTile(a), DenseTile(b), DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c - a @ b.T, atol=1e-12)

    def test_lr_a_dense_b(self, rng):
        ta, a = lr_tile(rng, 6, 6, 2)
        b = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 6))
        out = K.gemm(ta, DenseTile(b), DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c - a @ b.T, atol=1e-10)

    def test_dense_a_lr_b(self, rng):
        a = rng.standard_normal((6, 6))
        tb, b = lr_tile(rng, 6, 6, 3)
        c = rng.standard_normal((6, 6))
        out = K.gemm(DenseTile(a), tb, DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c - a @ b.T, atol=1e-10)

    def test_lr_lr(self, rng):
        ta, a = lr_tile(rng, 6, 6, 2)
        tb, b = lr_tile(rng, 6, 6, 4)
        c = rng.standard_normal((6, 6))
        out = K.gemm(ta, tb, DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c - a @ b.T, atol=1e-10)

    def test_zero_rank_inputs(self, rng):
        za = LowRankTile(np.zeros((6, 0)), np.zeros((6, 0)))
        c = rng.standard_normal((6, 6))
        out = K.gemm(za, za, DenseTile(c))
        np.testing.assert_allclose(out.to_dense64(), c, atol=1e-14)


class TestGemmLowRankOutput:
    def test_lr_update_stays_lr(self, rng):
        ta, a = lr_tile(rng, 8, 8, 2)
        tb, b = lr_tile(rng, 8, 8, 2)
        tc, c = lr_tile(rng, 8, 8, 3)
        tol = 1e-10 * np.linalg.norm(c - a @ b.T)
        out = K.gemm(ta, tb, tc, tol=tol, max_rank=8)
        assert out.owed == (tol, 8)
        # The TRSM that next reads the tile settles it (identity
        # triangle: the values are unchanged).
        out = K.trsm(DenseTile(np.eye(8)), out)
        assert out.is_low_rank and out.owed is None and out.rank == 5
        np.testing.assert_allclose(
            out.to_dense64(), c - a @ b.T,
            atol=1e-8 * np.linalg.norm(c),
        )

    def test_dense_inputs_compressed_update(self, rng):
        a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        b = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        tc, c = lr_tile(rng, 8, 8, 2)
        tol = 1e-9 * np.linalg.norm(c)
        out = K.gemm(DenseTile(a), DenseTile(b), tc, tol=tol, max_rank=8)
        np.testing.assert_allclose(out.to_dense64(), c - a @ b.T, atol=1e-7)

    def test_rank_overflow_densifies(self, rng):
        """When the update cannot be truncated under max_rank, the
        settle in TRSM keeps the tile dense (the runtime's fallback),
        at its planned storage precision."""
        ta = DenseTile(rng.standard_normal((8, 8)))
        tb = DenseTile(rng.standard_normal((8, 8)))
        tc, c = lr_tile(rng, 8, 8, 1, Precision.FP32)
        out = K.gemm(ta, tb, tc, tol=1e-14, max_rank=2)
        assert out.owed == (1e-14, 2) and out.data.dtype == np.float64
        settled = K.trsm(DenseTile(np.eye(8)), out)
        assert not settled.is_low_rank and settled.owed is None
        assert settled.precision is Precision.FP32
        np.testing.assert_allclose(
            settled.to_dense64(),
            tc.to_dense64() - ta.to_dense64() @ tb.to_dense64().T,
            rtol=1e-6, atol=1e-6,
        )

    def test_rank_overflow_raises_when_disallowed(self, rng):
        """A GEMM never settles, so it never refuses an update: the
        settle in TRSM keeps an over-cap tile dense where the exact
        oracle, :func:`recompress` under the same cap, raises."""
        from repro.exceptions import CompressionError
        from repro.tile.compression import recompress

        ta = DenseTile(rng.standard_normal((8, 8)))
        tb = DenseTile(rng.standard_normal((8, 8)))
        tc, _ = lr_tile(rng, 8, 8, 1)
        out = K.gemm(ta, tb, tc, tol=1e-14, max_rank=2)
        assert not K.trsm(DenseTile(np.eye(8)), out).is_low_rank
        u, s, vt = np.linalg.svd(out.data)
        with pytest.raises(CompressionError):
            recompress(u * s, vt.T, 1e-14, max_rank=2)
        with pytest.raises(TypeError):
            K.gemm(ta, tb, tc, tol=1e-14, max_rank=2, allow_densify=False)


PRECISIONS = (Precision.FP64, Precision.FP32, Precision.FP16)


@st.composite
def update_chains(draw):
    """A low-rank ``m x n`` tile and 1-40 Schur updates ``A_i B_i^T``
    into it: ragged shapes, dense and low-rank operands (rank 0
    included) at every storage precision."""
    m = draw(st.integers(3, 24))
    n = draw(st.integers(3, 24))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(rows, cols):
        precision = draw(st.sampled_from(PRECISIONS))
        if draw(st.booleans()):
            return DenseTile(gen.standard_normal((rows, cols)), precision)
        rank = draw(st.integers(0, min(3, rows, cols)))
        return LowRankTile(
            gen.standard_normal((rows, rank)),
            gen.standard_normal((cols, rank)), precision,
        )

    c = LowRankTile(
        gen.standard_normal((m, 2)), gen.standard_normal((n, 2)),
        draw(st.sampled_from(PRECISIONS)),
    )
    updates = []
    for _ in range(draw(st.integers(1, 40))):
        k = draw(st.integers(3, 24))
        updates.append((operand(m, k), operand(n, k)))
    tol = 10.0 ** draw(st.integers(-12, 0))
    max_rank = draw(st.one_of(st.none(), st.integers(1, min(m, n))))
    return c, updates, tol, max_rank


class TestAccumulateThenSettle:
    @given(chain=update_chains())
    @settings(max_examples=60, deadline=None)
    def test_chain_settles_within_tolerance(self, chain):
        """The accumulator is one dense float64 block from the first
        update on, whatever the operands were, and the one truncation
        lands within ``tol`` (Frobenius) of the exact dense result plus
        the rounding of its storage precision."""
        c, updates, tol, max_rank = chain
        m, n = c.shape
        exact = c.to_dense64()
        for a, b in updates:
            exact = exact - a.to_dense64() @ b.to_dense64().T
            c = K.gemm(a, b, c, tol=tol, max_rank=max_rank)
            assert isinstance(c, DenseTile) and c.owed == (tol, max_rank)
            assert c.data.dtype == np.float64 and c.data.shape == (m, n)
        storage = c.precision
        out = K.trsm(DenseTile(np.eye(n)), c)
        assert out.owed is None and out.precision is storage
        payload = (out.u, out.v) if out.is_low_rank else (out.data,)
        assert all(p.dtype == storage.dtype for p in payload)
        if out.is_low_rank and max_rank is not None:
            assert out.rank <= max_rank
        rounding = 4.0 * np.sqrt(min(m, n)) * storage.unit_roundoff
        assert np.linalg.norm(out.to_dense64() - exact) <= (
            tol + (rounding + 1e-13) * max(np.linalg.norm(exact), 1.0)
        )

    def test_settle_happens_once_in_trsm(self, rng):
        """The dense float64 block from the first update on, each later
        update subtracted there exactly, one truncation when TRSM reads
        the tile, none after."""
        tc, c = lr_tile(rng, 16, 16, 2, Precision.FP32)
        ta, a = lr_tile(rng, 16, 16, 2)
        tb, b = lr_tile(rng, 16, 16, 2)
        once = K.gemm(ta, tb, tc, tol=1e-9, max_rank=8)
        assert not once.is_low_rank and once.owed == (1e-9, 8)
        assert once.precision is Precision.FP32
        assert once.data.dtype == np.float64
        twice = K.gemm(ta, tb, once, tol=1e-9, max_rank=8)
        thrice = K.gemm(ta, tb, twice, tol=1e-9, max_rank=8)
        update = (ta.to_dense64() @ tb.v) @ tb.u.T
        assert thrice.data.tobytes() == (
            tc.to_dense64() - update - update - update
        ).tobytes()
        eye = DenseTile(np.eye(16))
        settled = K.trsm(eye, thrice)
        assert settled.is_low_rank and settled.owed is None
        assert settled.precision is Precision.FP32
        assert settled.rank == 4  # c and one direction a b^T, thrice
        np.testing.assert_allclose(
            settled.to_dense64(), tc.to_dense64() - 3 * a @ b.T, atol=1e-5
        )
        assert K.trsm(eye, settled).owed is None

    def test_unsettleable_tile_stays_dense(self, rng):
        tc, c = lr_tile(rng, 8, 8, 1)
        a = rng.standard_normal((8, 8))
        out = K.gemm(DenseTile(a), DenseTile(a), tc, tol=1e-14, max_rank=2)
        settled = K.trsm(DenseTile(np.eye(8)), out)
        assert not settled.is_low_rank and settled.owed is None
        np.testing.assert_allclose(settled.to_dense64(), c - a @ a.T, atol=1e-12)


class TestPrecisionSemantics:
    def test_fp32_gemm_loses_digits(self, rng):
        """An FP32-lead GEMM must show single-precision error, i.e. the
        conversion really happens."""
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        c = rng.standard_normal((32, 32))
        exact = c - a @ b.T
        out32 = K.gemm(DenseTile(a), DenseTile(b), DenseTile(c, Precision.FP32))
        err = np.max(np.abs(out32.to_dense64() - exact))
        assert 1e-9 < err < 1e-3

    def test_fp16_with_fp32_accumulation_better_than_pure(self, rng):
        """SHGEMM emulation (FP32 accumulate) must beat pure HGEMM."""
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        c = np.zeros((64, 64))
        exact = -a @ b.T
        mixed = K.gemm(
            DenseTile(a, Precision.FP16),
            DenseTile(b, Precision.FP16),
            DenseTile(c, Precision.FP16),
            fp16_accumulate_fp32=True,
        )
        pure = K.gemm(
            DenseTile(a, Precision.FP16),
            DenseTile(b, Precision.FP16),
            DenseTile(c, Precision.FP16),
            fp16_accumulate_fp32=False,
        )
        err_mixed = np.linalg.norm(mixed.to_dense64() - exact)
        err_pure = np.linalg.norm(pure.to_dense64() - exact)
        assert err_mixed <= err_pure


class TestDenseKernelsConvertOnce:
    """The dense kernels cast each stored operand straight to the
    compute dtype and hand the compute-dtype result to ``DenseTile``;
    the bytes are those of the arithmetic written out here, which reads
    every operand through float64 and returns the result through it."""

    @staticmethod
    def _read(tile, dtype):
        return tile.to_dense64().astype(dtype)

    @staticmethod
    def _stored(out, precision):
        return cast_storage(np.asarray(out, dtype=np.float64), precision)

    @pytest.mark.parametrize("accumulate_fp32", [True, False])
    @pytest.mark.parametrize("operand", list(Precision))
    @pytest.mark.parametrize("lead", list(Precision))
    def test_bytes_of_the_float64_round_trip(self, rng, lead, operand,
                                             accumulate_fp32):
        n = 12
        tri = DenseTile(np.linalg.cholesky(spd(n, 2)), operand)
        a = DenseTile(rng.standard_normal((n, n)), operand)
        b = DenseTile(rng.standard_normal((n, n)), operand)
        c = DenseTile(rng.standard_normal((n, n)), lead)
        diag = DenseTile(spd(n, 3) + n * np.eye(n), lead)
        read, stored = self._read, self._stored
        dtype = compute_dtype(lead, fp16_accumulate_fp32=accumulate_fp32)
        if dtype == np.float16:
            # The emulated pure HGEMM is untouched; what changed is what
            # it is handed (the parent gave it float64 operands).
            product = K._matmul_emulated(
                a.to_dense64(), b.to_dense64().T, dtype
            )
        else:
            product = read(a, dtype) @ read(b, dtype).T
        adat = read(a, dtype)
        want = {
            "potrf": np.linalg.cholesky(read(diag, compute_dtype(lead))),
            "trsm": sla.solve_triangular(
                read(tri, dtype), read(c, dtype).T, lower=True,
                check_finite=False,
            ).T,
            # One array against its own transpose, as the kernel has
            # it: NumPy then calls BLAS SYRK, not GEMM.
            "syrk": read(diag, dtype) - adat @ adat.T,
            "gemm": read(c, dtype) - product,
        }
        flag = dict(fp16_accumulate_fp32=accumulate_fp32)
        got = {
            "potrf": K.potrf(diag),
            "trsm": K.trsm(tri, c, **flag),
            "syrk": K.syrk(a, diag, **flag),
            "gemm": K.gemm(a, b, c, **flag),
        }
        for op, tile in got.items():
            expected = stored(want[op], lead)
            assert tile.precision is lead, op
            assert tile.data.dtype == expected.dtype == lead.dtype, op
            assert tile.data.tobytes() == expected.tobytes(), op

    @pytest.mark.parametrize("operand", list(Precision))
    def test_fp16_overflow_still_raises(self, operand):
        """The narrowing to storage is one ``cast_storage`` from the
        compute dtype: 3.6e5 does not fit binary16."""
        ones = np.ones((4, 4))
        a = DenseTile(300.0 * ones, operand)
        b = DenseTile(-300.0 * ones, operand)
        c = DenseTile(100.0 * ones, Precision.FP16)
        with pytest.raises(NumericalCorruptionError,
                           match="overflows FP16 storage"):
            K.gemm(a, b, c)
        with pytest.raises(NumericalCorruptionError,
                           match="overflows FP16 storage"):
            K.syrk(a, DenseTile(100.0 * ones, Precision.FP16))
        with pytest.raises(NumericalCorruptionError,
                           match="overflows FP16 storage"):
            DenseTile(np.full((2, 2), 1e5, dtype=np.float32), Precision.FP16)


class TestLowRankKernelsReadFactorsInPlace:
    """The low-rank branches read a float64 factor where it is stored
    (no copy) and cast any other once; the bytes are those of the
    arithmetic written out here, which copies every factor to float64
    first, and no output aliases an operand.  An output computed in
    float64 takes ``C - (A V_B) U_B^T`` / ``C - A B^T`` with ``A`` as
    its float64 block; one computed below keeps the update factors."""

    @staticmethod
    def _f64(x):
        return np.array(x, dtype=np.float64)  # always a copy

    @pytest.mark.parametrize("lead", [Precision.FP64, Precision.FP32])
    @pytest.mark.parametrize("pb", [Precision.FP64, Precision.FP32])
    @pytest.mark.parametrize("pa", [Precision.FP64, Precision.FP32])
    def test_bytes_of_the_copying_arithmetic(self, rng, pa, pb, lead):
        n, f64 = 24, self._f64
        a, _ = lr_tile(rng, n, n, 3, pa)
        b, _ = lr_tile(rng, n, n, 5, pb)
        d = DenseTile(rng.standard_normal((n, n)), pb)
        c = DenseTile(rng.standard_normal((n, n)), lead)
        diag = DenseTile(spd(n, 3) + n * np.eye(n), lead)
        tri = DenseTile(np.linalg.cholesky(spd(n, 2)), pb)
        dtype = compute_dtype(lead)

        def cast(x):
            return np.array(x, dtype=dtype)

        ua, va, ub, vb = f64(a.u), f64(a.v), f64(b.u), f64(b.v)
        a64, d64 = ua @ va.T, d.to_dense64()
        core = va.T @ vb
        w = cast(va).T @ cast(va)
        if dtype == np.float64:
            want = {
                "gemm lr,lr": c.data - (a64 @ vb) @ ub.T,
                "gemm lr,dense": c.data - a64 @ d64.T,
                "gemm dense,lr": c.data - (d64 @ vb) @ ub.T,
            }
        else:
            want = {
                "gemm lr,lr": c.data - cast(ua) @ cast(ub @ core.T).T,
                "gemm lr,dense": c.data - cast(ua) @ cast(d64 @ va).T,
                "gemm dense,lr": c.data - cast(d64 @ vb) @ cast(ub).T,
            }
        want["syrk"] = diag.data - (cast(ua) @ w) @ cast(ua).T
        got = {
            "gemm lr,lr": K.gemm(a, b, c),
            "gemm lr,dense": K.gemm(a, d, c),
            "gemm dense,lr": K.gemm(d, b, c),
            "syrk": K.syrk(a, diag),
        }
        for op, tile in got.items():
            assert tile.data.dtype == lead.dtype, op
            assert tile.data.tobytes() == want[op].tobytes(), op

        solved = K.trsm(tri, a)
        want_v = sla.solve_triangular(
            tri.to_dense64(), va, lower=True, check_finite=False
        )
        assert solved.v.tobytes() == cast_storage(want_v, pa).tobytes()
        assert solved.u.tobytes() == a.u.tobytes()

        # A low-rank output: a dense float64 accumulator at its storage
        # precision, whatever that is.
        planned = LowRankTile(ub, vb, lead)
        acc = K.gemm(a, b, planned, tol=1e-9)
        assert acc.owed == (1e-9, None) and acc.precision is lead
        assert acc.data.tobytes() == (
            f64(planned.u) @ f64(planned.v).T - (a64 @ vb) @ ub.T
        ).tobytes()
        for out in (*got.values(), solved, acc):
            arrays = (out.u, out.v) if out.is_low_rank else (out.data,)
            for operand in (a.u, a.v, b.u, b.v, d.data, c.data, diag.data):
                assert not any(np.shares_memory(x, operand) for x in arrays)
