"""Unit tests for CFNN training-data preparation."""

import numpy as np
import pytest

from repro.core.training import TrainingConfig, make_difference_patches, normalisation_scales


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig().validate()

    def test_patch_shape_clamped(self):
        config = TrainingConfig(patch_size_2d=32, patch_size_3d=12)
        assert config.patch_shape(2, (16, 100)) == (16, 32)
        assert config.patch_shape(3, (8, 100, 100)) == (8, 12, 12)

    def test_invalid_ndim(self):
        with pytest.raises(ValueError):
            TrainingConfig().patch_shape(4, (2, 2, 2, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": -1.0},
            {"n_patches": 0},
        ],
    )
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs).validate()


class TestPatches:
    def test_shapes_2d(self):
        rng = np.random.default_rng(0)
        anchors = [rng.normal(size=(40, 50)) for _ in range(2)]
        target = rng.normal(size=(40, 50))
        config = TrainingConfig(n_patches=7, patch_size_2d=16)
        inputs, targets, anchor_scales, target_scales = make_difference_patches(anchors, target, config)
        assert inputs.shape == (7, 4, 16, 16)   # 2 anchors x 2 axes
        assert targets.shape == (7, 2, 16, 16)  # 2 axes
        assert anchor_scales.shape == (4,)
        assert target_scales.shape == (2,)

    def test_shapes_3d(self):
        rng = np.random.default_rng(1)
        anchors = [rng.normal(size=(10, 20, 20)) for _ in range(3)]
        target = rng.normal(size=(10, 20, 20))
        config = TrainingConfig(n_patches=4, patch_size_3d=8)
        inputs, targets, _, _ = make_difference_patches(anchors, target, config)
        assert inputs.shape == (4, 9, 8, 8, 8)
        assert targets.shape == (4, 3, 8, 8, 8)

    def test_normalised_channels_have_unit_scale(self):
        rng = np.random.default_rng(2)
        anchors = [rng.normal(size=(64, 64)) * 100]
        target = rng.normal(size=(64, 64)) * 0.01
        config = TrainingConfig(n_patches=32, patch_size_2d=32)
        inputs, targets, _, _ = make_difference_patches(anchors, target, config)
        assert 0.1 < np.std(inputs) < 10.0
        assert 0.1 < np.std(targets) < 10.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_difference_patches([np.zeros((4, 4))], np.zeros((5, 5)), TrainingConfig(n_patches=1))

    def test_normalisation_scales_are_standard_deviations(self):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(8, 8)) * 3.0, np.full((4, 4), 7.0)]
        scales = normalisation_scales(arrays)
        assert scales[0] == pytest.approx(arrays[0].std())
        assert scales[1] == 1e-8  # a constant array falls back to the floor

    def test_normalisation_scales_floor(self):
        scales = normalisation_scales([np.zeros((4, 4))])
        assert scales[0] > 0
