"""Block layout and storage accounting for FRSZ2 (paper Eq. 3).

FRSZ2 groups ``BS`` consecutive values into a block that shares one
maximum exponent.  Blocks are aligned so that every block starts at a
32-bit word boundary, which keeps index computations cheap (paper
Section IV-C, optimization 4/5).  The exponents live in a *separate*
stream of one ``int32`` per block (optimization 5), so the total storage
for ``n`` values is

    ceil(n / BS) * ceil(BS * l / 32) * 4   bytes of compressed values
  + ceil(n / BS) * 4                       bytes of exponents

which is Eq. (3) of the paper specialised to a 4-byte word type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BlockLayout", "DEFAULT_BLOCK_SIZE"]

#: The paper mandates BS = 32 on NVIDIA GPUs so a block maps onto a warp.
DEFAULT_BLOCK_SIZE = 32


@dataclass(frozen=True)
class BlockLayout:
    """Geometry of an FRSZ2-compressed array.

    Parameters mirror the two optimization parameters of the format:
    ``block_size`` (BS) and ``bit_length`` (l), plus the element count.
    The derived sizes every write and every pointer check asks for are
    computed once per instance.
    """

    n: int
    block_size: int = DEFAULT_BLOCK_SIZE
    bit_length: int = 32

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        # l includes the sign bit and at least the integer significand bit.
        if not 2 <= self.bit_length <= 64:
            raise ValueError(f"bit_length must be in [2, 64], got {self.bit_length}")

    @cached_property
    def num_blocks(self) -> int:
        """Number of blocks, ``ceil(n / BS)``."""
        return -(-self.n // self.block_size)

    @cached_property
    def words_per_block(self) -> int:
        """32-bit words holding one block's compressed values."""
        return -(-(self.block_size * self.bit_length) // 32)

    @cached_property
    def value_words(self) -> int:
        """Total 32-bit words in the compressed-value stream."""
        return self.num_blocks * self.words_per_block

    @property
    def value_nbytes(self) -> int:
        """Bytes of compressed values (first term of Eq. 3)."""
        return self.value_words * 4

    @property
    def exponent_nbytes(self) -> int:
        """Bytes of the per-block exponent stream (second term of Eq. 3)."""
        return self.num_blocks * 4

    @cached_property
    def total_nbytes(self) -> int:
        """Total storage in bytes (Eq. 3)."""
        return self.value_nbytes + self.exponent_nbytes

    @property
    def bits_per_value(self) -> float:
        """Average storage bits per value, including the exponent stream.

        For BS=32, l=32 this is (32*32 + 32)/32 = 33 bits — the figure the
        paper uses to explain why frsz2_32 trails float32 slightly.
        """
        if self.n == 0:
            return 0.0
        return self.total_nbytes * 8 / self.n

    @cached_property
    def is_aligned(self) -> bool:
        """True when l is a power of two >= 8, i.e. fields never straddle.

        The paper keeps separate, simpler kernels for this case
        (Section IV-C, optimization 3).
        """
        l = self.bit_length
        return l in (8, 16, 32, 64)

    @cached_property
    def payload_dtype(self) -> np.dtype:
        """Stored dtype of the value stream: ``uint8/16/32/64`` slots on
        the aligned path, packed ``uint32`` words otherwise."""
        return np.dtype(f"u{self.bit_length // 8 if self.is_aligned else 4}")

    @cached_property
    def payload_size(self) -> int:
        """Elements of the stored value stream: one slot per value of
        every (whole) block when aligned, else :attr:`value_words`."""
        if self.is_aligned:
            return self.num_blocks * self.block_size
        return self.value_words

    def check_arrays(self, payload, exponents) -> None:
        """Raise unless the two arrays are a container of this layout.

        The one check between a container built anywhere — loaded, sliced
        or assembled by hand — and a decoder that indexes its arrays by
        the layout alone.  The exponents may be any integer dtype (the
        decoders convert); the payload is read as stored.
        """
        if (payload.dtype != self.payload_dtype
                or payload.shape != (self.payload_size,)
                or exponents.dtype.kind not in "iu"
                or exponents.shape != (self.num_blocks,)):
            raise ValueError("container arrays do not match their block layout")

    def block_bit_start(self, block: int) -> int:
        """Bit offset of a block's first field in the value stream."""
        return block * self.words_per_block * 32

    def value_bit_position(self, index) -> "tuple":
        """(block, bit offset) of the field holding value ``index``."""
        block = index // self.block_size
        within = index % self.block_size
        return block, block * self.words_per_block * 32 + within * self.bit_length

    def block_range(self, block: int) -> range:
        """Indices of the values stored in ``block`` (last may be short)."""
        start = block * self.block_size
        return range(start, min(start + self.block_size, self.n))
