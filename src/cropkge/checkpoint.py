"""Bit-exact binary checkpoint format for croppable models.

Little-endian layout:

    magic "CKGE" | u16 version | u8 score-fn id | u8 norm id
    u16 n | n x u32 dims | u32 entities | u32 relations | 3 x f64 scalars
    u8 table count
    per table: u8 name length | name utf8 | u32 rows
               rows * d_n * f32 payload | u32 CRC32(payload)

Tables are stored exactly as their in-memory float32 bytes, so
load(save(m)) reproduces m bit-for-bit. Each table's CRC is verified on
load and failures are reported with the table name.
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .model import LAYOUTS, NORMS, SCORE_KINDS, CroppableModel, ScoreFunction, check_schedule

MAGIC = b"CKGE"
VERSION = 1

_KIND_ID = {kind: i for i, kind in enumerate(SCORE_KINDS)}
_NORM_ID = {norm: i for i, norm in enumerate(NORMS)}


def save_checkpoint(model: CroppableModel, path: str | Path) -> None:
    """Serialize a model; tables must be float32."""
    for name, table in model.tables.items():
        if table.dtype != np.float32:
            raise ValueError(
                f"checkpoint tables must be float32, table {name!r} is {table.dtype}"
            )
    names = model.table_names()
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HBBH", VERSION, _KIND_ID[model.score_fn.kind],
                             _NORM_ID[model.score_fn.norm], model.n))
        fh.write(struct.pack(f"<{model.n}I", *model.dims))
        fh.write(struct.pack("<II", model.num_entities, model.num_relations))
        fh.write(struct.pack("<3d", model.w1, model.w2, model.w3))
        fh.write(struct.pack("<B", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            table = np.ascontiguousarray(model.tables[name], dtype="<f4")
            payload = table.tobytes()
            fh.write(struct.pack("<B", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", table.shape[0]))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _need(fh, nbytes: int, what: str) -> bytes:
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise ValueError(f"truncated checkpoint: short read in {what}")
    return buf


def load_checkpoint(path: str | Path) -> CroppableModel:
    """Load and CRC-verify a checkpoint saved by save_checkpoint."""
    with open(path, "rb") as fh:
        if _need(fh, 4, "magic") != MAGIC:
            raise ValueError("not a checkpoint file (bad magic)")
        version, kind_id, norm_id, n = struct.unpack("<HBBH", _need(fh, 6, "header"))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version} (expected {VERSION})")
        if kind_id >= len(SCORE_KINDS):
            raise ValueError(f"unknown score-function id {kind_id}")
        if norm_id >= len(NORMS):
            raise ValueError(f"unknown norm id {norm_id}")
        if n < 1:
            raise ValueError(f"bad checkpoint header: schedule has n={n} sub-models, need n >= 1")
        dims = struct.unpack(f"<{n}I", _need(fh, 4 * n, "schedule"))
        try:
            dims = check_schedule(dims)
        except ValueError as exc:
            raise ValueError(f"bad checkpoint header: {exc}") from None
        num_entities, num_relations = struct.unpack("<II", _need(fh, 8, "vocab sizes"))
        w1, w2, w3 = struct.unpack("<3d", _need(fh, 24, "scalars"))
        (table_count,) = struct.unpack("<B", _need(fh, 1, "table count"))
        score_fn = ScoreFunction(kind=SCORE_KINDS[kind_id], norm=NORMS[norm_id])
        expected = [name for name, _ in LAYOUTS[score_fn.kind]]
        if table_count != len(expected):
            raise ValueError(
                f"checkpoint has {table_count} tables, layout {score_fn.kind!r} needs {len(expected)}"
            )
        width = dims[-1]
        tables = {}
        for _ in range(table_count):
            (name_len,) = struct.unpack("<B", _need(fh, 1, "table name"))
            name = _need(fh, name_len, "table name").decode("utf-8")
            (rows,) = struct.unpack("<I", _need(fh, 4, f"table {name!r} rows"))
            payload = _need(fh, rows * width * 4, f"table {name!r} payload")
            (crc,) = struct.unpack("<I", _need(fh, 4, f"table {name!r} crc"))
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise ValueError(f"CRC mismatch in table {name!r}")
            tables[name] = np.frombuffer(payload, dtype="<f4").reshape(rows, width).copy()
        if list(tables) != expected:
            raise ValueError(f"checkpoint tables {list(tables)} do not match layout {expected}")
    return CroppableModel(
        score_fn=score_fn,
        dims=dims,
        num_entities=num_entities,
        num_relations=num_relations,
        tables=tables,
        w1=w1,
        w2=w2,
        w3=w3,
    )
