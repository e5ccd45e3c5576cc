"""Unit tests for error-bound specification."""

import numpy as np
import pytest

from repro.sz.errors import ErrorBound


class TestErrorBound:
    def test_absolute_resolve(self):
        eb = ErrorBound.absolute(0.5)
        assert eb.resolve(np.array([0.0, 100.0])) == 0.5

    def test_relative_resolve(self):
        eb = ErrorBound.relative(1e-3)
        data = np.array([0.0, 200.0])
        assert np.isclose(eb.resolve(data), 0.2)

    def test_relative_constant_data(self):
        eb = ErrorBound.relative(1e-3)
        assert eb.resolve(np.full(10, 7.0)) == 1e-3

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ErrorBound("weird", 1e-3)

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            ErrorBound.relative(0.0)
        with pytest.raises(ValueError):
            ErrorBound.absolute(-1.0)

    def test_dict_round_trip(self):
        eb = ErrorBound.relative(5e-4)
        assert ErrorBound.from_dict(eb.to_dict()) == eb

    def test_coerce(self):
        eb = ErrorBound.absolute(0.5)
        assert ErrorBound.coerce(eb) is eb
        assert ErrorBound.coerce({"mode": "abs", "value": 0.5}) == eb
        assert ErrorBound.coerce(1e-3) == ErrorBound.relative(1e-3)
        assert ErrorBound.coerce(np.float32(0.25)) == ErrorBound.relative(0.25)
        assert ErrorBound.coerce(None, default=eb) is eb
        for bad in (None, True, "1e-3", [1e-3]):
            with pytest.raises(TypeError, match="error bound must be"):
                ErrorBound.coerce(bad)
        with pytest.raises(KeyError):
            ErrorBound.coerce({"mode": "abs"})
        with pytest.raises(ValueError):
            ErrorBound.coerce(-1.0)

    def test_frozen(self):
        eb = ErrorBound.absolute(1.0)
        with pytest.raises(Exception):
            eb.value = 2.0

    def test_str(self):
        assert "rel" in str(ErrorBound.relative(1e-3))
