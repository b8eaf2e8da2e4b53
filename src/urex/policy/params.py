"""Flat parameter vectors with named segments, plus the checkpoint codec."""

from __future__ import annotations

import json
from collections import OrderedDict

import numpy as np

_MAGIC = b"URXCKPT1\n"


class ParamVector:
    """All learnable weights as one flat float64 vector.

    Segments are contiguous named slices; ``view`` returns a writable
    reshaped view, so in-place updates to the flat vector and to segment
    views stay consistent.
    """

    def __init__(self, segments):
        self.segments = OrderedDict()
        offset = 0
        for name, shape in segments:
            size = int(np.prod(shape))
            self.segments[name] = (slice(offset, offset + size), tuple(shape))
            offset += size
        self.flat = np.zeros(offset)

    @property
    def size(self) -> int:
        return self.flat.size

    def view(self, name: str) -> np.ndarray:
        sl, shape = self.segments[name]
        return self.flat[sl].reshape(shape)

    def nonfinite_segments(self) -> list[str]:
        bad = []
        for name, (sl, _) in self.segments.items():
            if not np.all(np.isfinite(self.flat[sl])):
                bad.append(name)
        return bad


def save_checkpoint(path, params: ParamVector, meta: dict | None = None) -> None:
    """Write a versioned checkpoint; identical params yield identical bytes."""
    header = {
        "version": 1,
        "meta": meta or {},
        "segments": [[name, list(shape)] for name, (_, shape) in params.segments.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ParamVector, meta)."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        blob_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(blob_len))
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version")
        params = ParamVector([(name, tuple(shape)) for name, shape in header["segments"]])
        data = np.frombuffer(fh.read(8 * params.size), dtype="<f8")
        if data.size != params.size:
            raise ValueError(f"{path}: truncated checkpoint")
        params.flat[:] = data
    return params, header["meta"]
