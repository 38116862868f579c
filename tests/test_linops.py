"""Measurement-model tests: generators, mask, forward/adjoint, oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.fft

from mixamp import checks, linops
from mixamp.exceptions import DegenerateProblemError, DimensionError, UnsupportedSizeError


class TestGaussianSensing:
    def test_deterministic_per_seed(self):
        a1 = linops.gen_gaussian_sensing(2, 4, seed=7)
        a2 = linops.gen_gaussian_sensing(2, 4, seed=7)
        assert np.array_equal(a1.entries, a2.entries)

    def test_different_seeds_differ(self):
        a1 = linops.gen_gaussian_sensing(8, 40, seed=0)
        a2 = linops.gen_gaussian_sensing(8, 40, seed=1)
        assert not np.array_equal(a1.entries, a2.entries)

    def test_sample_variance_near_one_over_m(self):
        m = 2867
        a = linops.gen_gaussian_sensing(64, m, seed=0)
        var = a.entries.var()
        assert 0.8 / m <= var <= 1.2 / m

    def test_mean_near_zero(self):
        a = linops.gen_gaussian_sensing(64, 2867, seed=0)
        assert abs(a.entries.mean()) < 3.0 / np.sqrt(2867 * 4096)

    @pytest.mark.parametrize("side,m", [(0, 1), (1, 1), (4, 0), (4, 17)])
    def test_dimension_errors(self, side, m):
        with pytest.raises(DimensionError):
            linops.gen_gaussian_sensing(side, m, seed=0)


class TestDctIdentity:
    def test_dct_orthonormal(self):
        for side in (4, 8, 32):
            a = linops.dct_sensing(side)
            gram = a.entries @ a.entries.T
            assert np.abs(gram - np.eye(side)).max() <= 1e-10

    def test_identity_entries(self):
        assert np.array_equal(linops.identity_sensing(5).entries, np.eye(5))

    def test_dct_built_once_per_side_and_read_only(self):
        assert linops.dct_sensing(16).entries is linops.dct_sensing(16).entries
        with pytest.raises(ValueError):
            linops.dct_sensing(16).entries[0, 0] = 0.0


class TestMask:
    def test_full_mask_when_m_equals_n(self):
        mask = linops.gen_mask(4, 16, seed=3)
        assert mask.m == 16
        assert mask.grid.all()

    def test_single_sample(self):
        mask = linops.gen_mask(4, 1, seed=5)
        assert mask.m == 1
        k, l = np.argwhere(mask.grid)[0]
        assert 0 <= k < 4 and 0 <= l < 4
        assert mask.grid[k, l] and mask.grid.sum() == 1

    def test_cardinality_fig2_setup(self):
        mask = linops.gen_mask(128, 11469, seed=1)
        assert mask.m == 11469
        assert mask.grid.sum() == 11469

    def test_no_duplicates_and_sorted(self):
        mask = linops.gen_mask(16, 100, seed=9)
        pairs = np.argwhere(mask.grid)
        flat = pairs[:, 0] * 16 + pairs[:, 1]
        assert len(np.unique(flat)) == 100

    def test_deterministic(self):
        m1 = linops.gen_mask(16, 50, seed=4)
        m2 = linops.gen_mask(16, 50, seed=4)
        assert np.array_equal(m1.grid, m2.grid)

    def test_too_many_samples(self):
        with pytest.raises(DimensionError):
            linops.gen_mask(4, 17, seed=0)

    def test_one_stored_array(self):
        # side and m are read off the array, so they cannot disagree with it
        names = lambda cls: tuple(f.name for f in dataclasses.fields(cls))
        assert names(linops.SensingMatrix) == ("entries",)
        assert names(linops.SamplingMask) == ("grid",)
        mask = linops.SamplingMask(grid=np.eye(6, dtype=bool))
        assert (mask.side, mask.m) == (6, 6)
        assert linops.SensingMatrix(entries=np.eye(4)).side == 4

    def test_grid_stored_as_bool(self):
        # an integer grid is an indicator, not a bit pattern to invert
        mask = linops.SamplingMask(grid=np.array([[1, 0], [0, 1]]))
        assert mask.grid.dtype == bool and mask.m == 2
        assert np.array_equal(linops.mask_apply(mask, np.ones((2, 2))), np.eye(2))

    @pytest.mark.parametrize("shape", [(4, 5), (4,), (1, 1)], ids=["4x5", "1d", "1x1"])
    def test_grid_not_square_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionError, match="mask grid must be a square 2D array"):
            linops.SamplingMask(grid=np.ones(shape, dtype=bool))

    def test_empty_grid_is_degenerate(self):
        with pytest.raises(DegenerateProblemError, match="mask holds no samples"):
            linops.SamplingMask(grid=np.zeros((4, 4), dtype=bool))

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateProblemError, match="sensing matrix is identically zero"):
            linops.SensingMatrix(entries=np.zeros((4, 4)))


class TestMaskApply:
    def test_full_mask_is_identity(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 8))
        assert np.array_equal(linops.mask_apply(linops.full_mask(8), z), z)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        mask = linops.gen_mask(8, 30, seed=2)
        z = rng.standard_normal((8, 8))
        once = linops.mask_apply(mask, z)
        assert np.array_equal(linops.mask_apply(mask, once), once)

    def test_zero_in_zero_out(self):
        mask = linops.gen_mask(8, 30, seed=2)
        assert not linops.mask_apply(mask, np.zeros((8, 8))).any()

    def test_input_untouched(self):
        mask = linops.gen_mask(8, 30, seed=2)
        z = np.random.default_rng(3).standard_normal((8, 8))
        kept = z.copy()
        out = linops.mask_apply(mask, z)
        assert np.array_equal(z, kept)
        assert np.array_equal(out, np.where(mask.grid, z, 0.0))

    def test_side_mismatch(self):
        mask = linops.gen_mask(8, 30, seed=2)
        with pytest.raises(DimensionError):
            linops.mask_apply(mask, np.zeros((4, 4)))


class TestForwardAdjoint:
    def test_identity_matrix_full_mask(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8))
        out = linops.forward(linops.identity_sensing(8), x, linops.full_mask(8))
        assert np.allclose(out, x, atol=0)

    def test_zero_input(self):
        a = linops.gen_gaussian_sensing(8, 40, seed=0)
        mask = linops.gen_mask(8, 40, seed=1)
        assert not linops.forward(a, np.zeros((8, 8)), mask).any()

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a = linops.gen_gaussian_sensing(8, 40, seed=2)
        mask = linops.gen_mask(8, 40, seed=3)
        for _ in range(20):
            x1 = rng.standard_normal((8, 8))
            x2 = rng.standard_normal((8, 8))
            alpha, beta = rng.standard_normal(2)
            lhs = linops.forward(a, alpha * x1 + beta * x2, mask)
            rhs = alpha * linops.forward(a, x1, mask) + beta * linops.forward(a, x2, mask)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_forward_output_lives_on_mask(self):
        rng = np.random.default_rng(5)
        a = linops.gen_gaussian_sensing(8, 20, seed=5)
        mask = linops.gen_mask(8, 20, seed=6)
        out = linops.forward(a, rng.standard_normal((8, 8)), mask)
        assert np.array_equal(linops.mask_apply(mask, out), out)
        assert not out[~mask.grid].any()

    def test_adjoint_identity_matrix(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((8, 8))
        assert np.allclose(linops.adjoint(linops.identity_sensing(8), r), r, atol=0)

    def test_adjoint_zero(self):
        a = linops.gen_gaussian_sensing(8, 40, seed=7)
        assert not linops.adjoint(a, np.zeros((8, 8))).any()

    def test_adjoint_inner_product_identity(self):
        rng = np.random.default_rng(7)
        instances = ((linops.MeasurementOperator(linops.gen_gaussian_sensing(12, 100, seed=seed),
                                                 linops.gen_mask(12, 100, seed=seed + 50)),
                      rng.standard_normal((12, 12)), rng.standard_normal((12, 12)))
                     for seed in range(10))
        assert checks.adjoint_identity(instances) <= 1e-10

    def test_side_mismatch(self):
        a = linops.gen_gaussian_sensing(8, 40, seed=0)
        with pytest.raises(DimensionError):
            linops.forward(a, np.zeros((4, 4)), linops.gen_mask(8, 10, seed=0))
        with pytest.raises(DimensionError):
            linops.forward(a, np.zeros((8, 8)), linops.gen_mask(4, 10, seed=0))


class TestKronOracle:
    def test_identity_full_mask_side2(self):
        a = linops.identity_sensing(2)
        xvec = np.array([1.0, 2.0, 3.0, 4.0])
        out = linops.kron_forward_oracle(a, xvec, np.arange(4))
        assert np.allclose(out, xvec, atol=0)

    def test_matches_forward_all_small_sides(self):
        # model equivalence on every supported oracle side
        def instances():
            for side in (2, 4, 8, 16):
                m = max(1, int(0.7 * side * side))
                for seed in range(10):
                    yield (linops.gen_gaussian_sensing(side, m, seed=seed),
                           linops.gen_mask(side, m, seed=seed + 1),
                           np.random.default_rng(1000 * side + seed).standard_normal((side, side)))

        assert checks.kron_equivalence(instances()) <= 1e-12

    def test_oracle_scale_guard(self):
        a = linops.gen_gaussian_sensing(32, 100, seed=0)
        with pytest.raises(UnsupportedSizeError, match="kron oracle limited to side <= 16"):
            linops.kron_forward_oracle(a, np.zeros(32 * 32), np.arange(10))


class TestDctFastForward:
    def test_zero(self):
        mask = linops.gen_mask(8, 30, seed=0)
        assert not linops.dct_fast_forward(np.zeros((8, 8)), mask).any()

    def test_matches_explicit_dct(self):
        rng = np.random.default_rng(8)
        assert checks.dct_equivalence(
            (linops.gen_mask(side, int(0.6 * side * side), seed=side),
             rng.standard_normal((side, side))) for side in (8, 32, 64)) <= 1e-10

    def test_full_mask_side8(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 8))
        a = linops.dct_sensing(8)
        fast = linops.dct_fast_forward(x, linops.full_mask(8))
        assert np.abs(fast - a.entries @ x @ a.entries.T).max() <= 1e-10

    def test_non_power_of_two_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            linops.dct_fast_forward(np.zeros((12, 12)), linops.full_mask(12))


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


class TestMasking:
    """forward and dct_fast_forward zero the unsampled entries by a scatter
    into mask.unsampled; it must give the bits np.where would give."""

    def nonfinite_product(self, side, mask):
        rng = np.random.default_rng(side)
        y = rng.standard_normal((side, side))
        off = np.argwhere(~mask.grid)
        for (k, l), value in zip(off, (np.inf, -np.inf, np.nan, -0.0)):
            y[k, l] = value
        y[tuple(np.argwhere(mask.grid)[0])] = np.nan  # kept: it is sampled
        return y

    def test_scatter_equals_where_with_inf_and_nan(self):
        for side in (4, 16, 256):
            mask = linops.gen_mask(side, side * side // 2, seed=side)
            y = self.nonfinite_product(side, mask)
            expected = np.where(mask.grid, y, 0.0)
            for layout in (np.ascontiguousarray, np.asfortranarray):
                out = linops._zero_unsampled(layout(y.copy()), mask)
                assert np.array_equal(_bits(out), _bits(expected))

    def test_forward_with_nonfinite_input(self):
        side = 16
        a = linops.gen_gaussian_sensing(side, 100, seed=1)
        mask = linops.gen_mask(side, 100, seed=2)
        x = np.random.default_rng(3).standard_normal((side, side))
        x[2, 3], x[5, 1] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            expected = np.where(mask.grid, a.entries @ x @ a.entries.T, 0.0)
            out = linops.forward(a, x, mask)
            fast = linops.dct_fast_forward(x, mask)
            fast_expected = np.where(mask.grid, scipy.fft.dctn(x, type=2, norm="ortho"), 0.0)
        assert not np.isfinite(out[mask.grid]).any()
        assert np.array_equal(_bits(out), _bits(expected))
        assert np.array_equal(_bits(fast), _bits(fast_expected))

    def test_fortran_ordered_input(self):
        side = 32
        rng = np.random.default_rng(4)
        a = linops.gen_gaussian_sensing(side, 600, seed=5)
        mask = linops.gen_mask(side, 600, seed=6)
        x = np.asfortranarray(rng.standard_normal((side, side)))
        assert np.array_equal(linops.forward(a, x, mask),
                              np.where(mask.grid, a.entries @ x @ a.entries.T, 0.0))
        assert np.array_equal(linops.dct_fast_forward(x, mask),
                              np.where(mask.grid, scipy.fft.dctn(x, type=2, norm="ortho"), 0.0))

    def test_unsampled_index_cached_and_read_only(self):
        mask = linops.gen_mask(8, 30, seed=7)
        assert mask.unsampled is mask.unsampled
        assert np.array_equal(mask.unsampled, np.flatnonzero(~mask.grid))
        with pytest.raises(ValueError):
            mask.unsampled[0] = 0


class TestDctFastAdjoint:
    def test_matches_explicit_adjoint(self):
        rng = np.random.default_rng(10)
        assert checks.dct_equivalence(
            (linops.gen_mask(side, int(0.7 * side * side), seed=side),
             rng.standard_normal((side, side))) for side in (8, 32, 64, 128, 256)) <= 1e-10

    def test_non_power_of_two_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            linops.dct_fast_adjoint(np.zeros((12, 12)))


class TestMeasurementOperator:
    SCALE = 1.3

    def mask(self, side):
        return linops.gen_mask(side, int(0.7 * side * side), seed=side + 1)

    def operator(self, matrix, side, scale):
        mask = self.mask(side)
        a = linops.dct_sensing(side) if matrix == "dct" else linops.gen_gaussian_sensing(side, mask.m, 1)
        return a, mask, linops.MeasurementOperator(a, mask, scale)

    def test_form_is_read_off_the_entries(self):
        # the fast form needs a power-of-two side and the DCT's entries,
        # wherever they come from; any other matrix takes the dense form
        mask = self.mask(16)
        dct = linops.dct_sensing(16).entries
        fast = lambda entries: linops.MeasurementOperator(linops.SensingMatrix(entries=entries),
                                                          mask).fast
        assert fast(dct) and fast(dct.copy())
        assert not fast(-dct)
        assert not self.operator("dct", 12, 1.0)[2].fast
        assert not self.operator("gaussian", 16, 1.0)[2].fast

    @pytest.mark.parametrize("matrix", ["dct", "gaussian"])
    @pytest.mark.parametrize("scale", [1.0, SCALE])
    def test_adjoint_identity(self, matrix, scale):
        rng = np.random.default_rng(11)
        assert checks.adjoint_identity(
            (self.operator(matrix, side, scale)[2],
             rng.standard_normal((side, side)), rng.standard_normal((side, side)))
            for side in (8, 16, 64)) <= 1e-10

    @pytest.mark.parametrize("side", [8, 32, 64, 128, 256])
    def test_fast_form_matches_dense_form(self, side):
        rng = np.random.default_rng(side)
        assert checks.dct_equivalence(
            [(self.mask(side), rng.standard_normal((side, side)))], scale=self.SCALE) <= 1e-10

    def test_dense_form_is_the_scaled_product(self):
        # bit for bit what forward/adjoint give with the scaled matrix c * a.entries
        rng = np.random.default_rng(12)
        a, mask, op = self.operator("gaussian", 16, self.SCALE)
        dense = dataclasses.replace(a, entries=self.SCALE * a.entries)
        x = rng.standard_normal((16, 16))
        assert np.array_equal(op.forward(x), linops.forward(dense, x, mask))
        assert np.array_equal(op.adjoint(x), linops.adjoint(dense, x))

    def test_side_mismatch(self):
        with pytest.raises(DimensionError):
            linops.MeasurementOperator(linops.dct_sensing(8), linops.gen_mask(4, 10, seed=0))
        _, _, op = self.operator("dct", 8, 1.0)
        with pytest.raises(DimensionError):
            op.adjoint(np.zeros((4, 4)))
