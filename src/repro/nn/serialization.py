"""Model parameter (de)serialisation and parameter counting.

The compressed stream has to embed the CFNN and hybrid-model parameters (the
paper counts them against the compressed size and reports them in Table III),
so models must serialise to a compact, self-describing byte string: a JSON
header with parameter names/shapes followed by raw floating-point data
(``float32`` by default; the CFNN stores ``float16``).

A model blob read back from an archive is untrusted: every malformed one is a
``ValueError`` raised before anything is allocated from what it declares.
"""

from __future__ import annotations

import json
import struct
from math import prod
from typing import Dict, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = [
    "state_to_bytes",
    "state_from_bytes",
    "read_json_header",
    "count_parameters",
]

_STATE_DTYPES = ("float16", "float32", "float64")


def count_parameters(model: Module) -> int:
    """Number of scalar trainable parameters in ``model``."""
    return model.num_parameters()


def state_to_bytes(model: Module, dtype=np.float32) -> bytes:
    """Serialise a model's parameters: JSON header + packed raw values."""
    state = model.state_dict()
    header = {
        "dtype": np.dtype(dtype).name,
        "params": [
            {"name": name, "shape": list(np.asarray(value).shape)}
            for name, value in state.items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(np.asarray(value, dtype=dtype).tobytes() for value in state.values())
    return struct.pack("<I", len(header_bytes)) + header_bytes + body


def read_json_header(payload: bytes, what: str) -> Tuple[Dict, int]:
    """Parse the ``<u32 length><JSON object>`` prefix of ``payload``.

    Returns ``(header, offset of the first byte after it)``; anything else —
    too short, a length past the end, not UTF-8, not JSON, not an object — is a
    ``ValueError`` naming ``what``.
    """
    if len(payload) < 4:
        raise ValueError(f"{what}: payload too small to contain a header")
    (header_len,) = struct.unpack_from("<I", payload, 0)
    end = 4 + header_len
    if end > len(payload):
        raise ValueError(f"{what}: header of {header_len} bytes runs past the payload")
    try:
        header = json.loads(bytes(payload[4:end]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or absurdly nested JSON
        raise ValueError(f"{what}: header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{what}: header must be a JSON object")
    return header, end


def state_from_bytes(model: Module, payload: bytes) -> Module:
    """Load parameters serialised by :func:`state_to_bytes` into ``model`` (in place).

    The declared parameters must be exactly the model's own (names, order and
    shapes) and the body exactly their size; any other payload raises
    ``ValueError`` before a single value is materialised.
    """
    header, offset = read_json_header(payload, "model state")
    if header.get("dtype") not in _STATE_DTYPES:
        raise ValueError(f"model state: dtype must be one of {_STATE_DTYPES}")
    dtype = np.dtype(header["dtype"])
    declared = header.get("params")
    expected = [(name, param.shape) for name, param in model.named_parameters()]
    if not isinstance(declared, list) or len(declared) != len(expected):
        raise ValueError(f"model state: expected a list of {len(expected)} parameters")
    for entry, (name, shape) in zip(declared, expected):
        if not isinstance(entry, dict) or entry.get("name") != name:
            raise ValueError(f"model state: expected parameter {name!r}")
        if entry.get("shape") != list(shape):
            raise ValueError(
                f"model state: parameter {name!r} has shape {shape}, "
                f"payload declares {entry.get('shape')}"
            )
    body = sum(prod(shape) for _, shape in expected) * dtype.itemsize
    if len(payload) - offset != body:
        raise ValueError(
            f"model state: body is {len(payload) - offset} bytes, the parameters need {body}"
        )
    state: Dict[str, np.ndarray] = {}
    for name, shape in expected:
        count = prod(shape)
        values = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        state[name] = values.reshape(shape)
        offset += count * dtype.itemsize
    model.load_state_dict(state)
    return model
