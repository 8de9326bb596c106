"""Machine-readable outputs: CSV tables, field dumps, run manifest.

CSV cells carry 17 significant digits so doubles survive a round trip.
Field dumps are raw little-endian float64 payloads behind a fixed
32-byte header whose bit layout is normative:

    bytes 0..7    magic "INS4FLD\\0"
    bytes 8..11   u32 spatial dimension (1 or 2)
    bytes 12..15  u32 cells per axis N (nodes per axis = N - 1)
    bytes 16..19  u32 number of time records Nt (1 for a static field)
    bytes 20..23  u32 zero padding
    bytes 24..31  u64 payload length in bytes

The manifest is JSON, written after every other file as the atomic
completion marker of a run.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SetupError

__all__ = [
    "FIELD_MAGIC",
    "format_cell",
    "write_csv",
    "write_field_dump",
    "read_field_dump",
    "RunManifest",
    "write_manifest",
]

FIELD_MAGIC = b"INS4FLD\x00"
_HEADER = struct.Struct("<8sIIIIQ")


def format_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits, rest verbatim."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> Path:
    """Write a UTF-8 comma-separated table with a header row."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_field_dump(path, fields: np.ndarray, dim: int, n_cells: int) -> Path:
    """Dump one field or a time series of fields, header as documented.

    ``fields`` is (*shape,) for a static field or (Nt, *shape) for a
    series, with shape = (n_cells - 1,) * dim.
    """
    path = Path(path)
    arr = np.ascontiguousarray(np.asarray(fields, dtype="<f8"))
    shape = (n_cells - 1,) * dim
    if arr.shape == shape:
        arr = arr[np.newaxis]
    if arr.shape[1:] != shape:
        raise SetupError(
            "field-dump-shape",
            f"fields of shape {arr.shape} do not match {dim}d grid with "
            f"{n_cells} cells per axis",
        )
    payload = arr.tobytes()
    header = _HEADER.pack(FIELD_MAGIC, dim, n_cells, arr.shape[0], 0,
                          len(payload))
    path.write_bytes(header + payload)
    return path


def read_field_dump(path) -> tuple[int, int, np.ndarray]:
    """Read a dump back; returns (dim, n_cells, fields of shape (Nt, ...))."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SetupError("field-dump-corrupt", f"{path}: truncated header")
    magic, dim, n_cells, nt, pad, length = _HEADER.unpack(raw[:_HEADER.size])
    if magic != FIELD_MAGIC or pad != 0:
        raise SetupError("field-dump-corrupt", f"{path}: bad magic or padding")
    if dim not in (1, 2) or n_cells < 2 or nt < 1:
        raise SetupError(
            "field-dump-corrupt",
            f"{path}: header says dimension {dim}, {n_cells} cells, {nt} records",
        )
    payload = raw[_HEADER.size:]
    if len(payload) != length:
        raise SetupError(
            "field-dump-corrupt",
            f"{path}: payload is {len(payload)} bytes, header says {length}",
        )
    shape = (nt,) + (n_cells - 1,) * dim
    # Python ints: a header's product can overflow int64 and wrap to 0
    expected = 8 * math.prod(shape)
    if length != expected:
        raise SetupError(
            "field-dump-corrupt",
            f"{path}: payload length {length} does not match shape {shape}",
        )
    fields = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return dim, n_cells, fields


@dataclass
class RunManifest:
    """Completion record of one command invocation."""

    command: str
    seed: int
    config: dict
    outputs: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)

    def add_output(self, path: Path) -> None:
        path = Path(path)
        self.outputs.append({"path": path.name, "bytes": path.stat().st_size})

    def add_check(self, name: str, passed: bool, **extra) -> None:
        entry = {"name": name, "passed": bool(passed)}
        entry.update(extra)
        self.checks.append(entry)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if v != v:
            return "nan"
        if v in (float("inf"), float("-inf")):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_manifest(path, manifest: RunManifest) -> Path:
    """Serialize the manifest; call this after every other write."""
    path = Path(path)
    doc = {
        "command": manifest.command,
        "seed": manifest.seed,
        "config": _jsonable(manifest.config),
        "outputs": manifest.outputs,
        "timings": {k: round(float(v), 6) for k, v in manifest.timings.items()},
        "checks": _jsonable(manifest.checks),
        "all_passed": manifest.all_passed,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
