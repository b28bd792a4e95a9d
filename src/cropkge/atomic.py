"""Whole-file writes: the target path holds the old file or the new one.

Every file the package writes (checkpoints, manifests, reports, logs) goes
through atomic_write, so a run that fails or is killed part-way never
leaves a truncated file where a reader expects a complete one.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Yield a file opened for writing that replaces `path` on success.

    The data goes to a temporary file in the same directory, which
    `os.replace` renames onto `path` when the block ends normally; the
    rename stays on one file system, so it is atomic. If the block raises,
    the temporary file is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, data) -> None:
    """Indented, key-sorted JSON plus a final newline, written atomically."""
    with atomic_write(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
