"""Unit tests for repro.utils.logging."""

import logging

from repro.utils.logging import get_logger


class TestLogging:
    def test_base_logger(self):
        assert get_logger().name == "repro"

    def test_child_logger(self):
        assert get_logger("sz.pipeline").name == "repro.sz.pipeline"

    def test_already_prefixed(self):
        assert get_logger("repro.core").name == "repro.core"

    def test_null_handler_attached(self):
        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
