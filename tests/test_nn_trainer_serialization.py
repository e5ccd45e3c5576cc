"""Unit tests for the trainer and model serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2d,
    PointwiseConv2d,
    ReLU,
    Sequential,
    Trainer,
    count_parameters,
    state_from_bytes,
    state_to_bytes,
)
from repro.nn.trainer import CLIP_GRAD_NORM


class TestTrainer:
    def _problem(self, rng):
        model = Sequential(Conv2d(1, 4, 3, rng=rng), ReLU(), Conv2d(4, 1, 3, rng=rng))
        x = rng.normal(size=(24, 1, 10, 10))
        y = 0.5 * np.roll(x, 1, axis=2)
        return model, x, y

    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        model, x, y = self._problem(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=5e-3), batch_size=8, rng=rng)
        history = trainer.fit(x, y, epochs=6)
        assert history.train_loss[-1] < history.train_loss[0]
        assert len(history.train_loss) == 6
        assert history.final_loss <= history.train_loss[0]

    def test_validation_tracked(self):
        rng = np.random.default_rng(1)
        model, x, y = self._problem(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), batch_size=8, rng=rng)
        history = trainer.fit(x[:16], y[:16], epochs=2, validation=(x[16:], y[16:]))
        assert len(history.val_loss) == 2

    def test_evaluate(self):
        rng = np.random.default_rng(2)
        model, x, y = self._problem(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), batch_size=8, rng=rng)
        value = trainer.evaluate(x, y)
        assert value > 0

    def test_same_seed_trains_the_same_weights(self):
        def train():
            rng = np.random.default_rng(7)
            model, x, y = self._problem(rng)
            trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), batch_size=8, rng=rng)
            history = trainer.fit(x[:16], y[:16], epochs=2, validation=(x[16:], y[16:]))
            return model.state_dict(), history

        state_a, history_a = train()
        state_b, history_b = train()
        assert history_a.train_loss == history_b.train_loss
        assert history_a.val_loss == history_b.val_loss
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key])

    def test_evaluate_is_mean_squared_error(self):
        rng = np.random.default_rng(8)
        model, x, y = self._problem(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), batch_size=5, rng=rng)
        expected = float(np.mean((model(x) - y) ** 2))
        assert np.isclose(trainer.evaluate(x, y), expected, rtol=1e-12)

    def test_every_update_is_clipped(self):
        rng = np.random.default_rng(3)
        model, x, y = self._problem(rng)
        optimizer = Adam(model.parameters(), lr=1e-3)
        clips = []
        clip = optimizer.clip_gradients

        def recording_clip(max_norm):
            clips.append(max_norm)
            return clip(max_norm)

        optimizer.clip_gradients = recording_clip
        history = Trainer(model, optimizer, batch_size=8, rng=rng).fit(x, y, epochs=1)
        assert clips == [CLIP_GRAD_NORM] * 3  # 24 samples in batches of 8
        assert history.epochs == [1]

    def test_invalid_arguments(self):
        rng = np.random.default_rng(4)
        model, x, y = self._problem(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), rng=rng)
        with pytest.raises(ValueError):
            trainer.fit(x, y[:-1], epochs=1)
        with pytest.raises(ValueError):
            trainer.fit(x, y, epochs=0)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters(), lr=1e-3), batch_size=0)

    def test_empty_history_raises(self):
        from repro.nn.trainer import TrainingHistory

        with pytest.raises(ValueError):
            TrainingHistory().final_loss


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        model = Sequential(Conv2d(4, 8, 3, rng=rng), ReLU(), PointwiseConv2d(8, 2, rng=rng))
        payload = state_to_bytes(model)
        clone = Sequential(Conv2d(4, 8, 3), ReLU(), PointwiseConv2d(8, 2))
        state_from_bytes(clone, payload)
        x = rng.normal(size=(3, 4, 5, 5))
        assert np.allclose(model(x), clone(x), atol=1e-6)

    def test_byte_size_accounting(self):
        model = Sequential(PointwiseConv2d(4, 8), PointwiseConv2d(8, 2))
        assert count_parameters(model) == (4 * 8 + 8) + (8 * 2 + 2)
        # serialized payload = header + float32 body
        assert len(state_to_bytes(model)) > count_parameters(model) * 4

    def test_truncated_payload(self):
        model = Sequential(PointwiseConv2d(4, 4))
        payload = state_to_bytes(model)
        with pytest.raises(ValueError):
            state_from_bytes(Sequential(PointwiseConv2d(4, 4)), payload[:-10])

    def test_too_small_payload(self):
        with pytest.raises(ValueError):
            state_from_bytes(Sequential(PointwiseConv2d(2, 2)), b"\x01")
