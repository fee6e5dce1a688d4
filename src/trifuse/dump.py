"""Checkpoints: one self-describing file, replaced atomically.

A checkpoint directory holds one file, ``state.mptd``: the magic ``MPTD``,
a u8 version (2), a u64 little-endian header length, the UTF-8 header, then
each array's payload in header order (row-major, little endian, no padding).
The header has one tab-separated line per entry, arrays sorted by name:

    meta   key   kind (f, i or s)  value (floats %.17g; no tab or newline)
    array  name  dtype (f4 or f8)  comma-separated dims  frozen (0 or 1)
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"MPTD"
VERSION = 2
STATE = "state.mptd"
_PREFIX = struct.Struct("<4sBQ")
_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}
_CODES = {dtype: code for code, dtype in _DTYPES.items()}


def write_atomic(path: str, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` atomically: a reader or a
    crash sees the old file or the new one, never a mix. A write that
    fails removes its temp file and re-raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)  # makes the rename itself durable
    finally:
        os.close(fd)


def save_checkpoint(directory: str,
                    arrays: dict[str, tuple[np.ndarray, bool]],
                    meta: dict[str, int | float | str]) -> None:
    lines, payloads = [], []
    for k, v in sorted(meta.items()):
        kind = "f" if isinstance(v, float) else "s" if isinstance(v, str) else "i"
        lines.append(f"meta\t{k}\t{kind}\t{format(v, '.17g' if kind == 'f' else '')}")
    for name, (arr, frozen) in sorted(arrays.items()):
        code = _CODES.get(arr.dtype)
        if code is None:
            raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"array\t{name}\t{code}\t{dims}\t{int(frozen)}")
        payloads.append(np.ascontiguousarray(arr, dtype=_DTYPES[code]))
    header = "".join(line + "\n" for line in lines).encode()
    os.makedirs(directory, exist_ok=True)
    write_atomic(os.path.join(directory, STATE),
                 [_PREFIX.pack(MAGIC, VERSION, len(header)), header, *payloads])


def _read(directory: str, payload: bool):
    """Path, meta, ``(name, dtype, dims, frozen)`` entries and payload bytes."""
    path = os.path.join(directory, STATE)
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if len(prefix) != _PREFIX.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, hlen = _PREFIX.unpack(prefix)
        if (magic, version) != (MAGIC, VERSION):
            raise ValueError(f"{path}: not an MPTD version {VERSION} file")
        # bounded by the file size, so a corrupt length asks for no huge read
        raw = fh.read(min(hlen, os.fstat(fh.fileno()).st_size))
        if len(raw) != hlen:
            raise ValueError(f"{path}: truncated header")
        blob = fh.read() if payload else b""
    meta, entries, line = {}, [], ""
    try:
        for line in raw.decode().splitlines():
            kind, *cols = line.split("\t")
            if kind == "meta":
                key, code, value = cols
                meta[key] = {"f": float, "i": int, "s": str}[code](value)
                continue
            name, code, dims, frozen = cols if kind == "array" else ()
            shape = tuple(int(d) for d in dims.split(",") if d)
            entries.append((name, _DTYPES[code], shape, frozen == "1"))
    except (KeyError, ValueError):  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: bad header line {line!r}") from None
    return path, meta, entries, blob


def load_checkpoint(directory: str):
    path, meta, entries, blob = _read(directory, payload=True)
    need = sum(math.prod(dims) * dtype.itemsize for _, dtype, dims, _ in entries)
    if need != len(blob):
        raise ValueError(f"{path}: {len(blob)} payload bytes, header says {need}")
    arrays, offset = {}, 0
    for name, dtype, shape, frozen in entries:
        arr = np.frombuffer(blob, dtype, math.prod(shape), offset)
        arrays[name] = (arr.reshape(shape).copy(), frozen)
        offset += arr.nbytes
    return arrays, meta


def read_meta(directory: str) -> dict[str, int | float | str]:
    """The scalar state of a checkpoint, read from its header alone."""
    return _read(directory, payload=False)[1]
