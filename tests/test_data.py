"""Phantom, image-IO, and metric tests."""

import numpy as np
import pytest

import oracles
from mixamp import data
from mixamp.exceptions import DimensionError, DomainError, ImageFormatError


class TestShotNoise:
    def test_rounds_to_zero(self):
        spec = data.PhantomSpec(kind="shot_noise", side=16, sparsity=0.001, seed=0)
        assert not data.gen_shot_noise(spec).any()

    def test_fig2_count(self):
        spec = data.PhantomSpec(kind="shot_noise", side=128, sparsity=0.05, seed=0)
        assert (data.gen_shot_noise(spec) != 0).sum() == 819

    def test_fig3_count(self):
        spec = data.PhantomSpec(kind="shot_noise", side=128, sparsity=0.10, seed=0)
        assert (data.gen_shot_noise(spec) != 0).sum() == 1638

    def test_deterministic(self):
        spec = data.PhantomSpec(kind="shot_noise", side=32, sparsity=0.1, seed=5)
        assert np.array_equal(data.gen_shot_noise(spec), data.gen_shot_noise(spec))

    def test_pm1_amplitudes(self):
        spec = data.PhantomSpec(kind="shot_noise", side=32, sparsity=0.1, seed=1)
        x = data.gen_shot_noise(spec)
        values = x[x != 0]
        assert set(np.unique(values)) <= {-1.0, 1.0}

    def test_sparsity_out_of_range(self):
        with pytest.raises(DomainError):
            data.PhantomSpec(kind="shot_noise", side=16, sparsity=1.5)


class TestGroupSparse:
    def test_zero_block_side(self):
        with pytest.raises(DimensionError, match="block_side must be >= 1"):
            data.PhantomSpec(kind="group_sparse", block_side=0)

    def test_zero_fraction(self):
        spec = data.PhantomSpec(kind="group_sparse", side=8, block_side=2,
                                active_fraction=0.0, seed=0)
        assert not data.gen_group_sparse(spec).any()

    def test_full_fraction_all_ones(self):
        spec = data.PhantomSpec(kind="group_sparse", side=8, block_side=2,
                                active_fraction=1.0, seed=0)
        x = data.gen_group_sparse(spec)
        assert (x == 1.0).all()

    def test_half_fraction_exact_count(self):
        spec = data.PhantomSpec(kind="group_sparse", side=8, block_side=2,
                                active_fraction=0.5, seed=0)
        x = data.gen_group_sparse(spec)
        # 8 of 16 tiles active, each contributing 4 ones
        assert x.sum() == 8 * 4
        # tiles are uniform
        for bi in range(0, 8, 2):
            for bj in range(0, 8, 2):
                tile = x[bi:bi + 2, bj:bj + 2]
                assert tile.min() == tile.max()

    def test_indivisible_side(self):
        spec = data.PhantomSpec(kind="group_sparse", side=10, block_side=4, seed=0)
        with pytest.raises(DimensionError):
            data.gen_group_sparse(spec)


class TestMixture:
    def test_supports_may_overlap_by_default(self):
        spec_a = data.PhantomSpec(kind="shot_noise", side=16, sparsity=0.5, seed=3)
        spec_b = data.PhantomSpec(kind="group_sparse", side=16, block_side=4,
                                  active_fraction=0.75, seed=4)
        xa, xb = data.make_mixture(spec_a, spec_b)
        assert ((xa != 0) & (xb != 0)).any()

    def test_disjoint_flag(self):
        spec_a = data.PhantomSpec(kind="shot_noise", side=16, sparsity=0.1, seed=3)
        spec_b = data.PhantomSpec(kind="group_sparse", side=16, block_side=4,
                                  active_fraction=0.5, seed=4)
        xa, xb = data.make_mixture(spec_a, spec_b, disjoint=True)
        assert not ((xa != 0) & (xb != 0)).any()

    def test_non_group_second_component_is_a_domain_error(self):
        spec_a = data.PhantomSpec(kind="shot_noise", side=16, sparsity=0.1, seed=3)
        spec_b = data.PhantomSpec(kind="shot_noise", side=16, sparsity=0.1, seed=4)
        with pytest.raises(DomainError):
            data.make_mixture(spec_a, spec_b)


class TestCartoon:
    def test_range_and_determinism(self):
        img = data.gen_cartoon(64, seed=7)
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img, data.gen_cartoon(64, seed=7))

    def test_finite_differences_are_sparse(self):
        img = data.gen_cartoon(64, seed=7)
        dh = np.abs(np.diff(img, axis=1)) > 1e-9
        dv = np.abs(np.diff(img, axis=0)) > 1e-9
        frac = (dh.sum() + dv.sum()) / (dh.size + dv.size)
        assert frac < 0.30


class TestPgmIO:
    def test_roundtrip_random_grid(self, tmp_path):
        rng = np.random.default_rng(8)
        grid = rng.random((16, 16))
        path = tmp_path / "g.pgm"
        data.save_image_pgm(grid, path)
        back = data.load_image_pgm(path)
        assert np.abs(back - grid).max() <= 1.0 / 255.0

    def test_zero_grid_exact(self, tmp_path):
        path = tmp_path / "z.pgm"
        data.save_image_pgm(np.zeros((8, 8)), path)
        assert not data.load_image_pgm(path).any()

    def test_saved_file_is_binary_pgm(self, tmp_path):
        path = tmp_path / "b.pgm"
        data.save_image_pgm(np.ones((4, 4)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert raw[len(b"P5\n4 4\n255\n"):] == b"\xff" * 16

    def test_reads_ascii_p2(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
        img = data.load_image_pgm(path)
        assert img == pytest.approx(np.array([[0, 128], [255, 64]]) / 255.0)

    def test_cartoon_roundtrip_side128(self, tmp_path):
        img = data.gen_cartoon(128, seed=0)
        path = tmp_path / "cam.pgm"
        data.save_image_pgm(img, path)
        back = data.load_image_pgm(path)
        assert back.shape == (128, 128)
        assert back.min() >= 0.0 and back.max() <= 1.0

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "ns.pgm"
        path.write_text("P2\n2 3\n255\n0 0 0 0 0 0\n")
        with pytest.raises(ImageFormatError):
            data.load_image_pgm(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ImageFormatError):
            data.load_image_pgm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "mv.pgm"
        path.write_text("P2\n2 2\n65535\n0 0 0 0\n")
        with pytest.raises(ImageFormatError):
            data.load_image_pgm(path)

    def test_rejects_truncated_p5(self, tmp_path):
        path = tmp_path / "tr.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ImageFormatError):
            data.load_image_pgm(path)


class TestPsnr:
    def test_identical_is_inf(self):
        x = np.ones((4, 4))
        assert data.psnr(x, x) == float("inf")

    def test_formula(self):
        ref = np.zeros((10, 10))
        ref[0, 0] = 1.0
        est = ref + 0.1  # MSE = 0.01, peak = 1
        assert data.psnr(ref, est) == pytest.approx(20.0)

    def test_matches_straight_line(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ref = rng.standard_normal((8, 8))
            est = ref + 0.2 * rng.standard_normal((8, 8))
            assert data.psnr(ref, est) == pytest.approx(
                oracles.straight_line_psnr(ref, est), abs=1e-10
            )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            data.psnr(np.zeros((4, 4)), np.zeros((8, 8)))


class TestMetricsCsv:
    def test_header_and_order(self, tmp_path):
        rows = [
            {"experiment": "group", "side": 64, "m_over_n": 0.7, "seed": 0,
             "psnr_a_db": "10.0", "psnr_b_db": "12.0", "iters": 100,
             "wall_ms": "5.0", "solver": "mixamp"},
        ]
        path = tmp_path / "m.csv"
        data.write_metrics_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "experiment,side,m_over_n,seed,psnr_a_db,psnr_b_db,iters,wall_ms,solver"
        assert text[1].startswith("group,64,0.7,0,")
        back = oracles.read_metrics_csv(path)
        assert back[0]["solver"] == "mixamp"
