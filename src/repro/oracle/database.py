"""Classical database model ``f : [N] -> {0,1}`` with a unique marked item.

Classical algorithms probe the database through :meth:`Database.scan`, which
probes a sequence of addresses in order until one is marked, or through
:meth:`Database.query`, one address; each probe increments the shared
:class:`~repro.oracle.counting.QueryCounter`.  Quantum oracles wrap the same
object, so a hybrid experiment (e.g. the brute-force tail of the Theorem 2
reduction) accumulates one coherent total.
"""

from __future__ import annotations

import numpy as np

from repro.oracle.counting import QueryCounter
from repro.util.bits import block_index
from repro.util.validation import require_in_range

__all__ = ["Database", "SingleTargetDatabase"]


class Database:
    """An unstructured database with an arbitrary marked set.

    Args:
        n_items: number of addresses ``N``.
        marked: iterable of marked addresses (``f(x) = 1``).
        counter: optional shared query counter (a fresh one by default).
    """

    def __init__(self, n_items: int, marked, counter: QueryCounter | None = None):
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        marked = frozenset(int(m) for m in marked)
        for m in marked:
            require_in_range("marked address", m, 0, n_items, inclusive=False)
        self._n_items = n_items
        self._marked = marked
        self._counter = counter if counter is not None else QueryCounter()

    # ----------------------------------------------------------- accounting
    @property
    def n_items(self) -> int:
        """Database size ``N``."""
        return self._n_items

    @property
    def counter(self) -> QueryCounter:
        """The shared query counter."""
        return self._counter

    @property
    def queries_used(self) -> int:
        """Convenience: total queries recorded on the counter."""
        return self._counter.count

    # -------------------------------------------------------------- queries
    def query(self, address: int) -> int:
        """One classical probe: returns ``f(address)`` and counts one query."""
        require_in_range("address", address, 0, self._n_items, inclusive=False)
        self._counter.increment()
        return 1 if address in self._marked else 0

    def scan(self, addresses) -> int | None:
        """Probe *addresses* in order until one is marked.

        Counts one query per probe, up to and including the first marked
        address (every probe when none is), and returns that address, or
        ``None``.  Every address is range-checked as :meth:`query` checks
        it before anything is counted.
        """
        probes = np.asarray(addresses, dtype=np.intp)
        outside = (probes < 0) | (probes >= self._n_items)
        if outside.any():
            require_in_range("address", int(probes[outside.argmax()]),
                             0, self._n_items, inclusive=False)
        hits = np.flatnonzero(np.isin(probes, list(self._marked)))
        self._counter.increment(int(hits[0]) + 1 if hits.size else probes.size)
        return int(probes[hits[0]]) if hits.size else None

    # --------------------------------------------------- uncounted metadata
    def reveal_marked(self) -> frozenset:
        """The marked set, *without* counting a query.

        For oracle construction, verification, and result reporting only —
        algorithm control flow must never branch on it (queries are the
        resource being counted; every *decision* must go through
        :meth:`query`, :meth:`scan` or a quantum oracle application).
        """
        return self._marked

    def restricted(self, addresses) -> "Database":
        """A sub-database over ``addresses`` (indices relabelled 0..len-1).

        Used by the Theorem 2 reduction, which recursively searches nested
        sub-ranges.  The child shares this database's counter, so recursion
        levels sum into one total.
        """
        addresses = list(addresses)
        index_of = {addr: i for i, addr in enumerate(addresses)}
        if len(index_of) != len(addresses):
            raise ValueError("addresses must be distinct")
        marked = {index_of[m] for m in self._marked if m in index_of}
        return Database(len(addresses), marked, counter=self._counter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_items={self._n_items}, marked={sorted(self._marked)})"


class SingleTargetDatabase(Database):
    """The paper's setting: exactly one marked address ``t``.

    Adds block-aware helpers for the partial-search problem.
    """

    def __init__(self, n_items: int, target: int, counter: QueryCounter | None = None):
        super().__init__(n_items, [target], counter=counter)
        self._target = int(target)

    def reveal_target(self) -> int:
        """The target address (uncounted; verification/analysis only)."""
        return self._target

    def reveal_target_block(self, n_blocks: int) -> int:
        """The target's block index ``y_t`` (uncounted; for verification)."""
        return block_index(self._target, self._n_items, n_blocks)
