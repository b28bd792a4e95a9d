"""Binary checkpoint format: round trips, header layout, corruption checks."""
import struct
import zlib

import numpy as np
import pytest

from cropkge.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from cropkge.model import crop_model

from conftest import ALL_KINDS, rand_model


def roundtrip(tmp_path, model, name="m.ckpt"):
    path = tmp_path / name
    save_checkpoint(model, path)
    return load_checkpoint(path), path


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_roundtrip_bitwise(tmp_path, kind):
    m = rand_model(kind, dims=(2, 3, 5), num_entities=7, num_relations=4,
                   seed=11, dtype=np.float32, norm="l1")
    m.w1, m.w2, m.w3 = 0.25, -1.5, 3.75
    loaded, _ = roundtrip(tmp_path, m)
    assert loaded.score_fn == m.score_fn
    assert loaded.dims == m.dims
    assert (loaded.num_entities, loaded.num_relations) == (7, 4)
    assert (loaded.w1, loaded.w2, loaded.w3) == (0.25, -1.5, 3.75)
    for name in m.tables:
        assert loaded.tables[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.tables[name], m.tables[name])


def test_save_load_save_is_byte_identical(tmp_path):
    m = rand_model("rotate", dims=(2, 4), seed=3, dtype=np.float32)
    loaded, p1 = roundtrip(tmp_path, m, "a.ckpt")
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout_exact(tmp_path):
    m = rand_model("simple", dims=(2, 3), num_entities=4, num_relations=2,
                   seed=0, dtype=np.float32)
    m.w1, m.w2, m.w3 = 1.0, 2.0, 3.0
    _, path = roundtrip(tmp_path, m)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, kind_id, norm_id, n = struct.unpack_from("<HBBH", raw, 4)
    assert (version, kind_id, norm_id, n) == (VERSION, 1, 0, 2)  # simple, l2
    dims = struct.unpack_from("<2I", raw, 10)
    assert dims == (2, 3)
    ents, rels = struct.unpack_from("<II", raw, 18)
    assert (ents, rels) == (4, 2)
    scalars = struct.unpack_from("<3d", raw, 26)
    assert scalars == (1.0, 2.0, 3.0)
    (table_count,) = struct.unpack_from("<B", raw, 50)
    assert table_count == 4
    # first table record: name, rows, payload, crc
    offset = 51
    (name_len,) = struct.unpack_from("<B", raw, offset)
    offset += 1
    name = raw[offset : offset + name_len].decode()
    assert name == "entity_head"
    offset += name_len
    (rows,) = struct.unpack_from("<I", raw, offset)
    assert rows == 4
    offset += 4
    payload = raw[offset : offset + rows * 3 * 4]
    np.testing.assert_array_equal(
        np.frombuffer(payload, dtype="<f4").reshape(4, 3), m.tables["entity_head"]
    )
    offset += len(payload)
    (crc,) = struct.unpack_from("<I", raw, offset)
    assert crc == zlib.crc32(payload) & 0xFFFFFFFF


def test_crop_then_save_roundtrip(tmp_path):
    m = rand_model("transe", dims=(2, 4, 6), seed=5, dtype=np.float32)
    c = crop_model(m, 4)
    loaded, _ = roundtrip(tmp_path, c)
    assert loaded.dims == (2, 4)
    np.testing.assert_array_equal(loaded.tables["entity"], m.tables["entity"][:, :4])


def test_save_failing_part_way_leaves_no_partial_file(tmp_path, monkeypatch):
    real_crc32 = zlib.crc32
    path = tmp_path / "m.ckpt"
    old = rand_model("simple", dtype=np.float32, seed=1)
    save_checkpoint(old, path)
    old_bytes = path.read_bytes()
    for target in (path, tmp_path / "fresh.ckpt"):
        written = []

        def crc_then_fail(payload):
            # the first table's bytes are in the file when the second one fails
            if written:
                raise OSError("no space left on device")
            written.append(len(payload))
            return real_crc32(payload)

        monkeypatch.setattr(zlib, "crc32", crc_then_fail)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(rand_model("simple", dtype=np.float32, seed=2), target)
        monkeypatch.setattr(zlib, "crc32", real_crc32)
        assert written
    assert path.read_bytes() == old_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_float64_tables_rejected(tmp_path):
    m = rand_model("transe", dims=(2,), dtype=np.float64)
    with pytest.raises(ValueError, match="float32"):
        save_checkpoint(m, tmp_path / "bad.ckpt")


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    m = rand_model("transe", dims=(2,), dtype=np.float32)
    path = tmp_path / "v.ckpt"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        load_checkpoint(path)


def test_unknown_kind_and_norm_ids(tmp_path):
    m = rand_model("transe", dims=(2,), dtype=np.float32)
    path = tmp_path / "k.ckpt"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    raw[6] = 200
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="score-function id"):
        load_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[6] = 0
    raw[7] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="norm id"):
        load_checkpoint(path)


def test_crc_mismatch_names_table(tmp_path):
    m = rand_model("pairre", dims=(3,), num_entities=5, num_relations=2,
                   seed=8, dtype=np.float32)
    path = tmp_path / "c.ckpt"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    # flip one payload byte of the first table ("entity"): header is
    # 4 magic + 6 fixed + 4 dims + 8 vocab + 24 scalars + 1 count
    # + 1 name len + 6 name + 4 rows
    first_payload = 4 + 6 + 4 + 8 + 24 + 1 + 1 + len(b"entity") + 4
    raw[first_payload] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="CRC mismatch in table 'entity'"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    m = rand_model("transe", dims=(2,), dtype=np.float32)
    path = tmp_path / "t.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_norm_preserved(tmp_path):
    m = rand_model("transe", dims=(2,), norm="l1", dtype=np.float32)
    loaded, _ = roundtrip(tmp_path, m)
    assert loaded.score_fn.norm == "l1"


def _with_schedule_bytes(raw: bytes, n: int, dims: tuple[int, ...]) -> bytes:
    """Checkpoint bytes with the header's n and dims replaced."""
    (old_n,) = struct.unpack_from("<H", raw, 8)
    head = raw[:8] + struct.pack("<H", n) + struct.pack(f"<{len(dims)}I", *dims)
    return head + raw[10 + 4 * old_n :]


def test_empty_or_bad_schedule_header_rejected(tmp_path):
    m = rand_model("transe", dims=(2, 4), dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    path.write_bytes(_with_schedule_bytes(raw, 0, ()))
    with pytest.raises(ValueError, match="n=0"):
        load_checkpoint(path)
    path.write_bytes(_with_schedule_bytes(raw, 2, (4, 2)))
    with pytest.raises(ValueError, match="bad checkpoint header.*strictly increasing"):
        load_checkpoint(path)
