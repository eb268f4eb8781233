"""Greedy partition of {0, 1, ..., N-1} into 3-free sequences.

Integers are assigned in increasing order; each n goes into the first row
it does not complete a 3-term arithmetic progression in.  Row 0 is the
Stanley sequence (integers with no 2 in base 3), row 1 starts 2, 5, 6, ...
Row j is therefore the greedy 3-free sequence built from the values that
rows 0..j-1 rejected: once rows 0..j-1 are known below a limit, row j below
it is fixed, and no later row can change it.  So the sieve fills one row at
a time through a "forbidden" byte array, and sieve_row stops as soon as the
row it was asked for is filled.

The sieve's one output is the row of each value, -1 for none, and
build_partition returns it as a GreedyPartition: one stable argsort of it,
made on first use, lists the values row by row, each row increasing.

A row is scanned in steps over [x, hi).  At the start of a step the array
holds, on [x, hi), 1 exactly at the values earlier rows took and at the
row's own marks; when n enters the row, every value 2*n - a (a already in
the row) becomes forbidden, since a, n, 2n - a would be an AP.  The next
candidate is then the first zero byte after n, found by bytearray.find; a
mark 2m - a always lies above m, so a value once accepted is never marked.
The array is 2*limit long, so every mark 2n - a (< 2n) lands inside it, and
seen backwards it turns 2n - a into an offset plus a: one numpy scatter with
the row's term buffer as the index array marks all of n's values at once.
numpy is imported inside the functions that sieve, so importing this module
does not load it: only a sieve pays for numpy.

Row j below hi depends only on rows 0..j-1 below hi, so from
_TWO_PROCESSES_FROM values on two processes share the rows: a forked child
fills the odd rows and this process the even ones, each row in _STEPS
steps.  Before a step over [x, hi) of row j, a process waits until the
other has finished that step of row j - 1; every value below hi that rows
0..j-1 took then has its row.  The row of each value, and a byte per value
taken, live in anonymous shared memory; each process keeps its own
forbidden array and terms.  The processes report each finished step with
one byte down a pipe, and end of file means the other process ended early.
Alone, a process runs the same loop with one step per row.

The two processes need a CPU each, and the scheduler does not give it to
them: on the 2-vCPU host this was measured on, a forked child that starts
busy stays on its parent's CPU for hundreds of ms, so two busy processes
got about half a CPU each and the pipeline ran no faster than one process.
So the calling thread is pinned to the first CPU it may use and the child
to the rest, and the thread's CPUs are restored afterwards.  Only the
process that imported this module forks: a forked worker of verify's pool
already shares the CPUs with its siblings, so it sieves alone.

A fork copies only the calling thread.  The sieve forks after numpy is
loaded, so after numpy's OpenBLAS has started its thread; OpenBLAS's fork
handler stops that thread before the fork, and no thread of the package's
runs then.  The child runs only numpy slices and scatters, bytearray.find and
os calls (pipe reads and writes, its affinity, its exit), and no BLAS.  A
test in tests/test_verify.py counts the threads at each fork.
"""

from __future__ import annotations

import bisect
import os
from functools import cached_property
from typing import TYPE_CHECKING

from .radix import BASE_3_2, _ReadOnly, represent

if TYPE_CHECKING:
    import numpy as np

_TWO_PROCESSES_FROM = 30000   # values; below about this one process sieves as fast as two
_STEPS = 8                    # steps per row when two processes share the rows
_HOME = os.getpid()           # the process that imported this module; its forks sieve alone


class InsufficientRangeError(ValueError):
    """The sieve bound was too small for the requested output.

    required_bound, when set, is a bound known to suffice.
    """

    def __init__(self, msg: str, required_bound: int | None = None):
        super().__init__(msg)
        self.required_bound = required_bound


class GreedyPartition(_ReadOnly):
    """Sieved [0, bound): the row of each value, -1 for none.  Read-only; equality,
    hash and repr read the bound alone."""

    _fields = ("bound",)

    def __init__(self, bound: int, _assignment: np.ndarray):
        vars(self).update(bound=bound, _assignment=_assignment)

    @cached_property
    def _by_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): row i is order[starts[i]:starts[i + 1]]; values in no row sort first."""
        import numpy as np

        a = self._assignment
        order = np.argsort(a, kind="stable")
        return order, np.searchsorted(a[order], np.arange(a.max() + 2))

    def row(self, i: int) -> tuple[int, ...]:
        """Terms of row i below the bound (empty if the row never opened)."""
        order, starts = self._by_row
        return tuple(order[starts[i]:starts[i + 1]].tolist()) if 0 <= i < self.num_rows else ()

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Every row, built afresh on each read."""
        return tuple(map(self.row, range(self.num_rows)))

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
        return len(self._by_row[1]) - 1


def first_term_bound(count: int) -> int:
    """A sieve bound guaranteed to open `count` rows.

    The first term of row i written in base 3 is the base-3/2 string of 2i,
    so one more than that value always suffices.
    """
    if count <= 0:
        return 1
    return int(represent(2 * (count - 1), BASE_3_2), 3) + 1


def _extend_row(forbidden: bytearray, row: list[int], terms: np.ndarray, x: int, hi: int) -> None:
    """Extend the greedy 3-free row `row` by every value in [x, hi) that it accepts.

    forbidden is 2 * limit bytes and, on [x, hi), holds 1 exactly at the
    values earlier rows took and at the row's own marks.  row lies below x
    and its terms are also in terms[:len(row)]; each new term goes into both,
    and its marks, up to 2 * limit, into forbidden.
    """
    import numpy as np

    limit = len(forbidden) // 2
    rev = np.frombuffer(forbidden, dtype=np.uint8)[::-1]   # forbidden[m] is rev[top - m]
    top = 2 * limit - 1
    k = len(row)
    s = bisect.bisect_right(row, 2 * x - limit)             # terms[:s] only mark at or above limit
    n = forbidden.find(0, x, hi)
    while n >= 0:
        cut = 2 * n - limit
        while s < k and row[s] <= cut:
            s += 1
        if s < k:
            rev[top - 2 * n:][terms[s:k]] = 1   # forbidden[2n - a] = 1 for a in terms[s:k]
        terms[k] = n
        row.append(n)
        k += 1
        n = forbidden.find(0, n + 1, hi)


class _Peer:
    """The other sieve process, through a pipe each way: one byte per finished step."""

    def __init__(self, read_fd: int, write_fd: int):
        self.read_fd = read_fd
        self.write_fd = write_fd
        self.seen = 0                       # steps the other process has finished

    def wait(self, steps: int) -> None:
        """Block until the other process has finished `steps` steps in all."""
        while self.seen < steps:
            got = os.read(self.read_fd, 4096)
            if not got:
                raise RuntimeError("the other sieve process ended early")
            self.seen += len(got)

    def step_done(self) -> None:
        os.write(self.write_fd, b"\0")


def _fill_rows(assignment: np.ndarray, taken: np.ndarray, first: int, last: int,
               peer: _Peer | None) -> None:
    """Fill rows first, first + stride, ... up to last, or up to the first that never opens.

    assignment holds the row of each value, -1 for none yet, and taken is 1
    exactly where assignment is set; both receive each new term.  Alone (no
    peer) this fills every row, each in one step.  With a peer, which fills
    the rows in between, each row is scanned in _STEPS steps, and a step
    over [x, hi) first waits for the peer to finish that step of the row
    before: then every value below hi that an earlier row took has its row.
    """
    import numpy as np

    limit = len(assignment)
    stride, steps = (1, 1) if peer is None else (2, _STEPS)
    starts = range(0, limit, -(-limit // steps))            # where each step begins
    forbidden = bytearray(2 * limit)                        # every mark 2n - a < 2 * limit fits
    forbidden_np = np.frombuffer(forbidden, dtype=np.uint8)  # same memory, vectorized writes
    terms = np.empty(limit, dtype=np.int64)                 # the open row's terms
    base = 0                                                # every value below is in an earlier row
    for j in range(first, last + 1, stride):
        forbidden_np[base:limit] = 0                        # wipe this process's last row's marks
        row: list[int] = []
        for t, x in enumerate(starts):
            hi = min(x + starts.step, limit)
            if hi > base:
                if peer and j:
                    peer.wait((j - 1) // 2 * len(starts) + t + 1)   # the peer's step t of row j - 1
                x = max(x, base)
                forbidden_np[x:hi] |= taken[x:hi]
                k = len(row)
                _extend_row(forbidden, row, terms, x, hi)
                index = terms[k:len(row)]
                taken[index] = 1
                assignment[index] = j
            if peer:
                peer.step_done()
        if not row:
            return
        base = row[0]


def _placement(limit: int) -> list[int] | None:
    """The CPUs to share the rows of a sieve below limit over, or None to sieve alone.

    Two processes pay only from _TWO_PROCESSES_FROM values on, with a CPU
    each, and only in the process that imported this module: a forked worker
    (verify's pool) already shares the CPUs with its siblings.
    """
    if limit < _TWO_PROCESSES_FROM or os.getpid() != _HOME or not hasattr(os, "fork"):
        return None
    affinity = getattr(os, "sched_getaffinity", None)       # CPython has it on Linux only
    cpus = sorted(affinity(0)) if affinity else []
    return cpus if len(cpus) >= 2 else None


def _assign(limit: int, last: int) -> np.ndarray:
    """Sieve rows 0..last below limit and no further: the row of each value.

    A value in a later row reads -1.  Where _placement allows, a forked child
    fills the odd rows on the other CPUs while this thread, pinned to the
    first CPU, fills the even ones; the child is reaped before this returns
    or raises, and this thread's CPUs are restored.
    """
    import mmap

    import numpy as np

    # anonymous shared memory: what a forked child writes lands here too.  Far
    # fewer than 2**15 rows open below any limit that fits in memory.
    shared = mmap.mmap(-1, 3 * limit)
    assignment = np.frombuffer(shared, dtype=np.int16, count=limit)
    taken = np.frombuffer(shared, dtype=np.uint8, offset=2 * limit)
    assignment[:] = -1
    cpus = _placement(limit)
    if cpus is None:
        _fill_rows(assignment, taken, 0, last, None)
        return assignment
    fds = list(os.pipe())
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    from_parent, to_child, from_child, to_parent = fds
    if pid == 0:
        os.close(to_child)
        os.close(from_child)
        code = 1
        try:
            os.sched_setaffinity(0, cpus[1:])
            _fill_rows(assignment, taken, 1, last, _Peer(from_parent, to_parent))
            while os.read(from_parent, 4096):       # hold the pipes open until the parent is done
                pass
            code = 0
        except BaseException:               # the child ends here whatever it raised
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(from_parent)
    os.close(to_parent)
    try:
        # a freshly forked busy child would share this CPU for hundreds of ms
        os.sched_setaffinity(0, cpus[:1])
        _fill_rows(assignment, taken, 0, last, _Peer(from_child, to_child))
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, cpus)
        os.close(to_child)                  # the child reads to the end of its pipe, then exits
        _, status = os.waitpid(pid, 0)
        os.close(from_child)
    if status:
        raise RuntimeError(f"the second sieve process failed (wait status {status})")
    return assignment


def build_partition(limit: int) -> GreedyPartition:
    """Sieve every n in [0, limit) into the greedy 3-free rows.

    Time and memory grow with limit alone (the rows below limit are fixed
    by it), so callers bound the sieve by capping limit.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return GreedyPartition(limit, _assign(limit, limit))


def sieve_row(limit: int, row: int) -> tuple[int, ...]:
    """Terms of row `row` below limit, sieving rows 0..row and no further.

    Equals build_partition(limit).row(row); empty if the row never opens.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if row < 0:
        raise ValueError(f"row must be >= 0, got {row}")
    import numpy as np

    return tuple(np.flatnonzero(_assign(limit, row) == row).tolist())


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
    order, starts = partition._by_row       # the sieve leaves no row below num_rows empty
    return order[starts[:count]].tolist()
