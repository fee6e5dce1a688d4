"""Binary array dumps and checkpoint directories.

Single-array format (extension .mptd):

    magic   4 bytes  "MPTD"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    rank    u8
    dims    rank * u64, little endian
    payload row-major little-endian values

A checkpoint is a directory of these files plus two TSV indexes:
``manifest.tsv`` with columns name, file, dims, frozen mapping logical
array names to files, and ``meta.tsv`` holding scalar state like the step
counter. Floats in meta round-trip through repr-precision formatting;
strings are stored as they are and must hold no tab or newline.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"MPTD"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_array(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    code = _CODES.get(arr.dtype)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBBB", MAGIC, VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(arr).astype(_DTYPES[code]).tobytes())


def read_array(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) != 7:
            raise ValueError(f"{path}: truncated header")
        magic, version, code, rank = struct.unpack("<4sBBB", head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if code not in _DTYPES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
        expected = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = fh.read()
    arr = np.frombuffer(payload, dtype=_DTYPES[code])
    if arr.size != expected:
        raise ValueError(f"{path}: payload holds {arr.size} values, "
                         f"dims say {expected}")
    return arr.reshape(dims).copy()


def save_checkpoint(directory: str,
                    arrays: dict[str, tuple[np.ndarray, bool]],
                    meta: dict[str, int | float | str]) -> None:
    os.makedirs(directory, exist_ok=True)
    rows = []
    for i, (name, (arr, frozen)) in enumerate(sorted(arrays.items())):
        fname = f"a{i:05d}.mptd"
        write_array(os.path.join(directory, fname), arr)
        dims = ",".join(str(d) for d in arr.shape)
        rows.append(f"{name}\t{fname}\t{dims}\t{int(frozen)}")
    with open(os.path.join(directory, "manifest.tsv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(directory, "meta.tsv"), "w") as fh:
        for key, value in sorted(meta.items()):
            if isinstance(value, float):
                fh.write(f"{key}\tf\t{value:.17g}\n")
            elif isinstance(value, str):
                fh.write(f"{key}\ts\t{value}\n")
            else:
                fh.write(f"{key}\ti\t{value}\n")


def load_checkpoint(directory: str):
    arrays: dict[str, tuple[np.ndarray, bool]] = {}
    with open(os.path.join(directory, "manifest.tsv")) as fh:
        for line in fh:
            name, fname, dims, frozen = line.rstrip("\n").split("\t")
            arr = read_array(os.path.join(directory, fname))
            got = ",".join(str(d) for d in arr.shape)
            if got != dims:
                raise ValueError(f"{name}: manifest dims {dims} != file {got}")
            arrays[name] = (arr, bool(int(frozen)))
    return arrays, read_meta(directory)


def read_meta(directory: str) -> dict[str, int | float | str]:
    """The scalar state of a checkpoint (``meta.tsv``), without its arrays."""
    parse = {"f": float, "i": int, "s": str}
    meta: dict[str, int | float | str] = {}
    with open(os.path.join(directory, "meta.tsv")) as fh:
        for line in fh:
            key, kind, raw = line.rstrip("\n").split("\t")
            meta[key] = parse[kind](raw)
    return meta
