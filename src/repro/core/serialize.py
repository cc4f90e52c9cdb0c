"""Binary serialization of FRSZ2-compressed arrays.

A small self-describing container so compressed Krylov data (or any
FRSZ2-compressed array) can be written to disk or shipped over a wire
and decompressed elsewhere without out-of-band metadata.

Layout (little endian):

    magic   4 bytes  b"FRZ2"
    version u16      2
    l       u16      bit length
    bs      u32      block size
    n       u64      element count
    exponents: num_blocks * i32
    payload:   value stream (dtype implied by l / alignment)
    crc     u32      CRC32 over header+exponents+payload

The CRC32 trailer covers every preceding byte, so any
single-bit corruption of the stream — header, exponents, payload or the
trailer itself — is detected at load time with a ``ValueError`` instead
of silently decompressing garbage into a solver.  Header fields are
validated *before* any size arithmetic, so hostile containers (zero
block size, unsupported bit length, absurd element counts) fail with a
precise error naming the bad field rather than a downstream
division-by-zero or overflow.  Any other version — the unchecksummed
version 1 included — is refused.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .blocks import BlockLayout
from .frsz2 import Frsz2Compressed

__all__ = ["dump_bytes", "load_bytes", "dump_file", "load_file", "CONTAINER_VERSION"]

_MAGIC = b"FRZ2"
#: the (checksummed) container version written and read
CONTAINER_VERSION = 2
_HEADER = struct.Struct("<4sHHIQ")
_CRC = struct.Struct("<I")


def dump_bytes(comp: Frsz2Compressed) -> bytes:
    """Serialize a compressed array to bytes."""
    layout = comp.layout
    header = _HEADER.pack(
        _MAGIC, CONTAINER_VERSION, layout.bit_length, layout.block_size, layout.n
    )
    body = header + comp.exponents.tobytes() + comp.payload.tobytes()
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def load_bytes(data: bytes) -> Frsz2Compressed:
    """Reconstruct a compressed array from :func:`dump_bytes` output.

    Raises ``ValueError`` naming the offending field for any malformed,
    truncated or corrupted container.
    """
    if len(data) < _HEADER.size:
        raise ValueError(
            f"truncated FRSZ2 container: {len(data)} bytes < "
            f"{_HEADER.size}-byte header"
        )
    magic, version, l, bs, n = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not an FRSZ2 container (bad magic)")
    if version != CONTAINER_VERSION:
        raise ValueError(f"unsupported FRSZ2 container version {version}")
    # Validate header fields before any size arithmetic touches them.
    if bs == 0:
        raise ValueError("invalid FRSZ2 container header: block_size must be positive, got 0")
    if not 2 <= l <= 64:
        raise ValueError(
            f"invalid FRSZ2 container header: bit_length must be in [2, 64], got {l}"
        )
    layout = BlockLayout(n, bs, l)
    off = _HEADER.size
    exp_bytes = layout.num_blocks * 4
    payload_bytes = layout.payload_size * layout.payload_dtype.itemsize
    body_size = _HEADER.size + exp_bytes + payload_bytes
    expected = body_size + _CRC.size
    if len(data) != expected:
        # Python ints don't overflow, so a hostile element count simply
        # produces an expected size the data can't match.
        raise ValueError(
            f"FRSZ2 container size mismatch for n={n}, block_size={bs}, "
            f"bit_length={l}: expected {expected} bytes, got {len(data)}"
        )
    stored = _CRC.unpack_from(data, body_size)[0]
    actual = zlib.crc32(data[:body_size]) & 0xFFFFFFFF
    if stored != actual:
        raise ValueError(
            f"FRSZ2 container checksum mismatch: stored 0x{stored:08x}, "
            f"computed 0x{actual:08x} (corrupted stream)"
        )
    exponents = np.frombuffer(data, dtype=np.int32, count=layout.num_blocks, offset=off).copy()
    off += exp_bytes
    payload = np.frombuffer(
        data, dtype=layout.payload_dtype, count=layout.payload_size, offset=off
    ).copy()
    return Frsz2Compressed(layout=layout, exponents=exponents, payload=payload)


def dump_file(path, comp: Frsz2Compressed) -> None:
    """Write a compressed array to ``path``."""
    with open(path, "wb") as fh:
        fh.write(dump_bytes(comp))


def load_file(path) -> Frsz2Compressed:
    """Read a compressed array written by :func:`dump_file`."""
    with open(path, "rb") as fh:
        return load_bytes(fh.read())
