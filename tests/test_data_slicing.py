"""Unit tests for repro.data.slicing."""

import numpy as np
import pytest

from repro.data.slicing import (
    extract_patches_nd,
    iter_blocks,
    take_slice,
    zoom_window,
)


class TestPatches:
    def test_aligned_sampling(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(32, 32))
        b = a * 2.0
        pa, pb = extract_patches_nd([a, b], (8, 8), n_patches=5, rng=np.random.default_rng(1))
        assert pa.shape == (5, 8, 8)
        assert np.allclose(pb, pa * 2.0)

    def test_patch_too_large(self):
        with pytest.raises(ValueError):
            extract_patches_nd([np.zeros((4, 4))], (8, 8), n_patches=1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            extract_patches_nd([np.zeros((8, 8)), np.zeros((9, 9))], (4, 4), n_patches=1)

    def test_nd_patches_3d(self):
        rng = np.random.default_rng(2)
        vol = rng.normal(size=(10, 12, 14))
        (patches,) = extract_patches_nd([vol], (4, 5, 6), 3, rng=rng)
        assert patches.shape == (3, 4, 5, 6)

    def test_nd_rank_mismatch(self):
        with pytest.raises(ValueError):
            extract_patches_nd([np.zeros((8, 8))], (2, 2, 2), 1)


class TestBlocks:
    def test_blocks_cover_exactly(self):
        shape = (7, 10)
        blocks = list(iter_blocks(shape, (3, 4)))
        covered = np.zeros(shape, dtype=int)
        for sl in blocks:
            covered[sl] += 1
        assert np.all(covered == 1)

    def test_invalid_block_shape(self):
        with pytest.raises(ValueError):
            list(iter_blocks((4, 4), (0, 2)))
        with pytest.raises(ValueError, match="rank"):
            list(iter_blocks((4, 4), (2,)))


class TestSliceAndZoom:
    def test_take_slice(self):
        vol = np.arange(24).reshape(2, 3, 4)
        sl = take_slice(vol, axis=0, index=1)
        assert sl.shape == (3, 4)
        assert np.array_equal(sl, vol[1])

    def test_take_slice_out_of_range(self):
        with pytest.raises(IndexError):
            take_slice(np.zeros((2, 2)), axis=0, index=5)

    def test_zoom_window_centered(self):
        img = np.arange(100).reshape(10, 10).astype(float)
        win = zoom_window(img, (5, 5), 4)
        assert win.shape == (4, 4)

    def test_zoom_window_clipped_at_edge(self):
        img = np.zeros((10, 10))
        win = zoom_window(img, (0, 0), 6)
        assert win.shape == (6, 6)

    def test_zoom_requires_2d(self):
        with pytest.raises(ValueError):
            zoom_window(np.zeros((3, 3, 3)), (1, 1), 2)
