"""Shared utilities: bit/block arithmetic, validation, RNG, tables.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in here knows about quantum states.
"""

from repro.util.bits import (
    bits_to_int,
    block_index,
    block_slice,
    first_k_bits,
    ilog2,
    int_to_bits,
    is_power_of_two,
    join_address,
    split_address,
)
from repro.util.rng import as_rng, spawn_rngs
from repro.util.tables import format_table, format_row
from repro.util.validation import (
    require,
    require_in_range,
    require_power_of_two,
    require_divides,
)

__all__ = [
    "bits_to_int",
    "block_index",
    "block_slice",
    "first_k_bits",
    "ilog2",
    "int_to_bits",
    "is_power_of_two",
    "join_address",
    "split_address",
    "as_rng",
    "spawn_rngs",
    "format_table",
    "format_row",
    "require",
    "require_in_range",
    "require_power_of_two",
    "require_divides",
]
