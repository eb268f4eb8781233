"""Greedy partition of {0, 1, ..., N-1} into 3-free sequences.

Integers are assigned in increasing order; each n goes into the first row
it does not complete a 3-term arithmetic progression in.  Row 0 is the
Stanley sequence (integers with no 2 in base 3), row 1 starts 2, 5, 6, ...
Row j is therefore the greedy 3-free sequence built from the values that
rows 0..j-1 rejected: once rows 0..j-1 are known below a limit, row j below
it is fixed, and no later row can change it.  So the sieve fills one row at
a time through a single "forbidden" byte array, and sieve_row stops as soon
as the row it was asked for is filled.

At the start of a row the array holds exactly the values earlier rows took;
when n enters the row, every value 2*n - a (a already in the row) becomes
forbidden, since a, n, 2n - a would be an AP.  The next candidate is then
the first zero byte after n, found by bytearray.find; a mark 2m - a always
lies above m, so a value once accepted is never marked.  The array is
2*limit long, so every mark 2n - a (< 2n) lands inside it, and seen
backwards it turns 2n - a into an offset plus a: one numpy scatter with the
row's term buffer as the index array marks all of n's values at once.
numpy is imported inside the functions that sieve, so importing this module
does not load it: only a sieve pays for numpy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .radix import BASE_3_2, represent

if TYPE_CHECKING:
    import numpy as np


class InsufficientRangeError(ValueError):
    """The sieve bound was too small for the requested output.

    required_bound, when set, is a bound known to suffice.
    """

    def __init__(self, msg: str, required_bound: int | None = None):
        super().__init__(msg)
        self.required_bound = required_bound


@dataclass(frozen=True)
class GreedyPartition:
    """Result of sieving [0, bound): rows plus the value -> row map."""

    bound: int
    rows: tuple[tuple[int, ...], ...]
    _assignment: np.ndarray = field(repr=False)

    def row(self, i: int) -> tuple[int, ...]:
        """Terms of row i below the bound (empty if the row never opened)."""
        return self.rows[i] if 0 <= i < len(self.rows) else ()

    def row_index(self, n: int) -> int:
        if not 0 <= n < self.bound:
            # no bound takes in a negative n
            raise InsufficientRangeError(
                f"{n} is outside the sieved range [0, {self.bound})",
                required_bound=n + 1 if n >= 0 else None,
            )
        return int(self._assignment[n])

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def first_term_bound(count: int) -> int:
    """A sieve bound guaranteed to open `count` rows.

    The first term of row i written in base 3 is the base-3/2 string of 2i,
    so one more than that value always suffices.
    """
    if count <= 0:
        return 1
    return int(represent(2 * (count - 1), BASE_3_2), 3) + 1


def _fill_row(forbidden: bytearray, n: int, terms: np.ndarray) -> list[int]:
    """Fill the greedy 3-free row whose first term is n, and return its terms.

    forbidden is 2 * limit bytes and, from n up to limit, holds 1 exactly at
    the values earlier rows took.  The row's marks are left in it and its
    terms in terms[:len(row)].
    """
    import numpy as np

    limit = len(forbidden) // 2
    rev = np.frombuffer(forbidden, dtype=np.uint8)[::-1]   # forbidden[m] is rev[top - m]
    top = 2 * limit - 1
    row: list[int] = []
    s = 0                                   # terms[:s] now only mark at or above limit
    k = 0
    while n >= 0:
        cut = 2 * n - limit
        while s < k and row[s] <= cut:
            s += 1
        if s < k:
            rev[top - 2 * n:][terms[s:k]] = 1   # forbidden[2n - a] = 1 for a in terms[s:k]
        terms[k] = n
        row.append(n)
        k += 1
        n = forbidden.find(0, n + 1, limit)
    return row


def _rows(limit: int) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield the rows below limit in order, each as its terms and their index array.

    The index array is a view of a buffer the next row overwrites.
    """
    import numpy as np

    taken = np.zeros(limit, dtype=bool)
    forbidden = bytearray(2 * limit)                        # every mark 2n - a < 2 * limit fits
    forbidden_np = np.frombuffer(forbidden, dtype=np.uint8)  # same memory, vectorized writes
    terms = np.empty(limit, dtype=np.int64)                 # the open row's terms
    start = 0                                               # every value below is in a row
    while True:
        # Forbid what earlier rows took; this also wipes the last row's marks.
        forbidden_np[start:limit] = taken[start:]
        start = forbidden.find(0, start, limit)
        if start < 0:
            return
        row = _fill_row(forbidden, start, terms)
        index = terms[:len(row)]
        taken[index] = True
        yield row, index


def build_partition(limit: int) -> GreedyPartition:
    """Sieve every n in [0, limit) into the greedy 3-free rows.

    Time and memory grow with limit alone (the rows below limit are fixed
    by it), so callers bound the sieve by capping limit.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    import numpy as np

    assignment = np.full(limit, -1, dtype=np.int32)         # -1: in no row yet
    rows: list[tuple[int, ...]] = []
    for row, index in _rows(limit):
        assignment[index] = len(rows)
        rows.append(tuple(row))
    return GreedyPartition(
        bound=limit,
        rows=tuple(rows),
        _assignment=assignment,
    )


def sieve_row(limit: int, row: int) -> tuple[int, ...]:
    """Terms of row `row` below limit, sieving rows 0..row and no further.

    Equals build_partition(limit).row(row); empty if the row never opens.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if row < 0:
        raise ValueError(f"row must be >= 0, got {row}")
    for i, (terms, _) in enumerate(_rows(limit)):
        if i == row:
            return tuple(terms)
    return ()


def cross_sequence(partition: GreedyPartition, count: int) -> list[int]:
    """Read the partition crosswise: first term of each of the first `count` rows."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > partition.num_rows:
        need = first_term_bound(count)
        raise InsufficientRangeError(
            f"only {partition.num_rows} rows opened below {partition.bound}, not {count}",
            required_bound=need,
        )
    return [r[0] for r in partition.rows[:count]]
