"""The ``(N, K)`` block partition of the address space.

The paper partitions ``[N]`` into ``K`` equal *contiguous* blocks; when both
are powers of two a block index is literally the first ``k = log2(K)`` bits
of the ``n = log2(N)``-bit address.  ``BlockSpec`` centralises that
arithmetic so algorithms, oracles and analysis all agree on the layout.
``K`` need not be a power of two (the paper's own 12-item example uses
``K = 3``), only ``K | N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bits import block_slice, ilog2, is_power_of_two, join_address, split_address
from repro.util.validation import require, require_divides

__all__ = ["BlockSpec"]


@dataclass(frozen=True)
class BlockSpec:
    """An immutable description of the partial-search instance geometry.

    Attributes:
        n_items: database size ``N``.
        n_blocks: number of equal blocks ``K`` (must divide ``N``; ``K >= 2``
            — with one block there is nothing to search).
    """

    n_items: int
    n_blocks: int

    def __post_init__(self):
        require(self.n_items >= 2, f"n_items={self.n_items} must be >= 2")
        require(self.n_blocks >= 2, f"n_blocks={self.n_blocks} must be >= 2")
        require_divides("n_blocks", self.n_blocks, "n_items", self.n_items)
        require(
            self.n_blocks <= self.n_items,
            f"n_blocks={self.n_blocks} cannot exceed n_items={self.n_items}",
        )

    # ------------------------------------------------------------- geometry
    @property
    def block_size(self) -> int:
        """Addresses per block, ``N/K`` (the paper's block dimension)."""
        return self.n_items // self.n_blocks

    @property
    def address_bits(self) -> int:
        """``n = log2(N)`` (requires ``N`` a power of two)."""
        return ilog2(self.n_items)

    @property
    def block_bits(self) -> int:
        """``k = log2(K)`` — how many leading address bits partial search
        returns (requires ``K`` a power of two)."""
        return ilog2(self.n_blocks)

    @property
    def is_dyadic(self) -> bool:
        """True when both ``N`` and ``K`` are powers of two (the paper's
        ``{0,1}^n`` framing; non-dyadic instances are still valid)."""
        return is_power_of_two(self.n_items) and is_power_of_two(self.n_blocks)

    # ----------------------------------------------------------- addressing
    def block_of(self, address: int) -> int:
        """Block index ``y`` containing *address*."""
        return split_address(address, self.n_items, self.n_blocks)[0]

    def split(self, address: int) -> tuple[int, int]:
        """``(y, z)`` — block index and offset inside the block."""
        return split_address(address, self.n_items, self.n_blocks)

    def join(self, y: int, z: int) -> int:
        """Address with block index ``y`` and in-block offset ``z``."""
        return join_address(y, z, self.n_items, self.n_blocks)

    def slice_of(self, y: int) -> slice:
        """Contiguous address slice of block ``y``."""
        return block_slice(y, self.n_items, self.n_blocks)

    def addresses_of(self, y: int) -> range:
        """The addresses in block ``y`` as a ``range``."""
        s = self.slice_of(y)
        return range(s.start, s.stop)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockSpec(N={self.n_items}, K={self.n_blocks}, block={self.block_size})"
