"""The greedy sieve into 3-free rows."""

import errno
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from stanleygrid import greedy, grid, verify
from stanleygrid.greedy import (
    GreedyPartition,
    InsufficientRangeError,
    build_partition,
    cross_sequence,
    first_term_bound,
    sieve_row,
)
from stanleygrid.radix import BASE_3, represent

ROW0_PREFIX = [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]
ROW1_PREFIX = [2, 5, 6, 11, 14, 15, 18, 29, 32, 33, 38, 41, 42, 45, 54, 83]
CROSS_PREFIX = [0, 2, 7, 21, 23, 64, 69, 71, 193, 207]


@pytest.fixture(scope="module")
def part729():
    return build_partition(3**6)


def test_row0_prefix(part729):
    assert list(part729.row(0)[:16]) == ROW0_PREFIX


def test_row1_prefix(part729):
    assert list(part729.row(1)[:16]) == ROW1_PREFIX


def test_row0_below_41():
    part = build_partition(41)
    assert list(part.row(0)) == ROW0_PREFIX


def test_row1_below_84():
    part = build_partition(84)
    assert list(part.row(1)) == ROW1_PREFIX


def test_cross_sequence(part729):
    assert cross_sequence(part729, 10) == CROSS_PREFIX


def test_rows_cover_range_disjointly(part729):
    n_total = sum(len(r) for r in part729.rows)
    assert n_total == part729.bound
    seen = set()
    for r in part729.rows:
        assert seen.isdisjoint(r)
        seen.update(r)
    assert seen == set(range(part729.bound))
    for n in (0, 1, 2, 7, 100, 728):
        assert n in part729.rows[part729.row_index(n)]


def test_rows_are_3free(part729):
    for terms in part729.rows:
        members = set(terms)
        for bi, b in enumerate(terms):
            for a in terms[:bi]:
                assert 2 * b - a not in members, (a, b, 2 * b - a)


def test_small_numbers_land_where_expected(part729):
    assert part729.row_index(2) == 1
    assert part729.row_index(7) == 2
    assert part729.row_index(8) == 2
    assert part729.row_index(21) == 3
    assert part729.row_index(23) == 4


def test_first_terms_follow_base32(part729):
    for i in range(part729.num_rows):
        assert part729.row(i)[0] == int(represent(2 * i), 3)


def test_insufficient_bound_error():
    part = build_partition(5)
    with pytest.raises(InsufficientRangeError) as exc:
        cross_sequence(part, 10)
    assert exc.value.required_bound == 208
    assert first_term_bound(10) == 208
    part_ok = build_partition(208)
    assert cross_sequence(part_ok, 10) == CROSS_PREFIX


def test_row_index_outside_range(part729):
    with pytest.raises(InsufficientRangeError) as exc:
        part729.row_index(3**6)
    assert exc.value.required_bound == 3**6 + 1


def test_row_index_of_a_negative_value_names_no_bound(part729):
    # no sieve bound takes in -5, so the error must not suggest one
    with pytest.raises(InsufficientRangeError) as exc:
        part729.row_index(-5)
    assert str(exc.value) == "-5 is outside the sieved range [0, 729)"
    assert exc.value.required_bound is None


def test_bad_limits():
    with pytest.raises(ValueError):
        build_partition(0)
    with pytest.raises(ValueError, match="limit"):
        sieve_row(0, 0)
    with pytest.raises(ValueError, match="row"):
        sieve_row(10, -1)


def test_large_and_small_agree():
    small = build_partition(120)
    big = build_partition(3**6)
    for i in range(small.num_rows):
        assert list(small.row(i)) == [t for t in big.row(i) if t < 120]


def _build_partition_by_column(limit):
    """Reference sieve: values in increasing order, each probed against every open row.

    Keeps one forbidden byte array and one term buffer per row; returns
    (rows, assignment) for comparison with build_partition.
    """
    assignment = np.zeros(limit, dtype=np.int32)
    rows = []
    forb_bytes = []
    forb_np = []
    term_buf = []
    term_len = []
    for n in range(limit):
        j = 0
        opened = len(rows)
        while j < opened and forb_bytes[j][n]:
            j += 1
        if j == opened:
            rows.append([])
            ba = bytearray(limit)
            forb_bytes.append(ba)
            forb_np.append(np.frombuffer(ba, dtype=np.uint8))
            term_buf.append(np.empty(16, dtype=np.int64))
            term_len.append(0)
        k = term_len[j]
        if k:
            idx = 2 * n - term_buf[j][:k]
            idx = idx[idx < limit]
            if idx.size:
                forb_np[j][idx] = 1
        buf = term_buf[j]
        if k == len(buf):
            buf = np.resize(buf, 2 * k)
            term_buf[j] = buf
        buf[k] = n
        term_len[j] = k + 1
        rows[j].append(n)
        assignment[n] = j
    return tuple(tuple(r) for r in rows), assignment


@pytest.mark.parametrize("limit", [1, 2, 3, 41, 100, 3**6, 3**9])
def test_row_by_row_sieve_matches_column_order(limit):
    rows, assignment = _build_partition_by_column(limit)
    part = build_partition(limit)
    assert part.rows == rows
    assert [part.row_index(n) for n in range(limit)] == assignment.tolist()


@pytest.mark.parametrize("limit", [1, 2, 41, 84, 3**6, 3**7])
def test_sieve_row_is_the_row_of_the_full_sieve(limit):
    part = build_partition(limit)
    rows, _ = _build_partition_by_column(limit)
    for r in range(part.num_rows + 2):
        got = sieve_row(limit, r)
        assert got == part.row(r), (limit, r)
        assert got == (rows[r] if r < len(rows) else ()), (limit, r)


@pytest.mark.parametrize("row", [0, 1, 13, 26, 27, 40])
def test_sieve_row_stops_at_its_row(monkeypatch, row):
    # row r is fixed once rows 0..r are filled, so no later row is sieved
    num_rows = build_partition(3**7).num_rows
    assert num_rows == 27
    starts = []
    extend = greedy._extend_row

    def spy(forbidden, row, terms, x, hi):
        opens = not row
        extend(forbidden, row, terms, x, hi)
        if opens and row:
            starts.append(row[0])

    monkeypatch.setattr(greedy, "_extend_row", spy)
    got = sieve_row(3**7, row)
    assert len(starts) == min(row + 1, num_rows)
    if row < num_rows:
        assert got[0] == starts[-1] == int(represent(2 * row), 3)
    else:
        assert got == ()


def test_every_limit_up_to_243_matches_column_order():
    # Small bounds put marks 2n - a into the [limit, 2 * limit) padding and
    # make the candidate search stop at limit - 1 in every possible way.
    for limit in range(1, 3**5 + 1):
        rows, assignment = _build_partition_by_column(limit)
        part = build_partition(limit)
        assert part.rows == rows, limit
        assert [part.row_index(n) for n in range(limit)] == assignment.tolist(), limit


def test_sieve_memory_does_not_grow_with_rows():
    # 93 rows open below 3^10; one forbidden array per row would need
    # 93 * 3^10 bytes (5.2 MiB) on top of the rows themselves.
    tracemalloc.start()
    try:
        part = build_partition(3**10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.num_rows == 93
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_every_row_matches_the_digit_map():
    part = build_partition(3**10)
    assert part.num_rows == 93
    for n in range(3**10):
        assert part.row_index(n) == grid.row_of(represent(n, BASE_3)), n


def test_rows_are_read_off_the_row_of_each_value():
    # rows 0-2 by hand, their values out of order; 1, 6 and 9 are in no row
    assignment = np.array([0, -1, 2, 0, 1, 2, -1, 1, 0, -1, 2], dtype=np.int16)
    part = GreedyPartition(len(assignment), assignment)
    assert vars(part).keys() == {"bound", "_assignment"}       # no row is read yet
    assert part.num_rows == 3
    assert [part.row(i) for i in range(-1, 5)] == [(), (0, 3, 8), (4, 7), (2, 5, 10), (), ()]
    assert part.rows == tuple(part.row(i) for i in range(3)) == ((0, 3, 8), (4, 7), (2, 5, 10))
    assert [part.row_index(n) for n in range(len(assignment))] == assignment.tolist()
    assert cross_sequence(part, 3) == [0, 4, 2]
    with pytest.raises(InsufficientRangeError):
        cross_sequence(part, 4)
    assert GreedyPartition(3, np.full(3, -1, dtype=np.int16)).rows == ()


@pytest.mark.parametrize("row", [0, 2, 46])
def test_a_partial_sieve_reads_as_sieve_row(row):
    part = GreedyPartition(3**10, greedy._assign(3**10, row))
    assert part.num_rows == row + 1
    assert part.row(row) == sieve_row(3**10, row)
    assert all(a < b for r in part.rows for a, b in zip(r, r[1:]))


def test_a_partition_is_its_bound():
    a, b = build_partition(100), build_partition(100)
    assert a == b and hash(a) == hash(b)
    assert a != build_partition(99)
    assert repr(a) == "GreedyPartition(bound=100)"
    with pytest.raises(AttributeError):
        a.bound = 99
    assert a.bound == 100


def test_first_terms_rejects_negative_count(part729):
    with pytest.raises(ValueError):
        cross_sequence(part729, -1)
    assert cross_sequence(part729, 0) == []


# -- the rows in two processes -------------------------------------------------

CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
two_cpus = pytest.mark.skipif(len(CPUS) < 2 or not hasattr(os, "fork"),
                              reason="the sieve shares its rows only with fork and two CPUs")
BREAK_EVEN = greedy._TWO_PROCESSES_FROM


def _alone(monkeypatch, sieve, *args):
    """sieve(*args) with every row filled in this process."""
    with monkeypatch.context() as m:
        m.setattr(greedy, "_TWO_PROCESSES_FROM", math.inf)
        return sieve(*args)


def _forks(monkeypatch):
    """The pids of the processes forked from here on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_process_left(cpus=CPUS):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == cpus


@two_cpus
@pytest.mark.parametrize("limit", [BREAK_EVEN - 1, BREAK_EVEN, 3**10, 3**11,
                                   first_term_bound(73), first_term_bound(89)])
def test_two_processes_sieve_what_one_does(monkeypatch, limit):
    alone = _alone(monkeypatch, build_partition, limit)
    pids = _forks(monkeypatch)
    part = build_partition(limit)
    assert part.rows == alone.rows
    assert part._assignment.dtype == alone._assignment.dtype
    assert np.array_equal(part._assignment, alone._assignment)
    n = alone.num_rows
    for r in (0, n // 2, n - 1, n, n + 1):
        assert sieve_row(limit, r) == alone.row(r), r
    assert len(pids) == (6 if limit >= BREAK_EVEN else 0)
    _no_process_left()


@two_cpus
def test_two_processes_at_every_limit_up_to_243(monkeypatch):
    # below the break-even only when asked: a row of one to eight steps of one value or more
    for limit in range(1, 3**5 + 1):
        alone = _alone(monkeypatch, build_partition, limit)
        monkeypatch.setattr(greedy, "_TWO_PROCESSES_FROM", 1)
        part = build_partition(limit)
        assert part.rows == alone.rows, limit
        assert np.array_equal(part._assignment, alone._assignment), limit
        if limit % 27 == 0:
            for r in range(alone.num_rows + 2):
                assert sieve_row(limit, r) == alone.row(r), (limit, r)
    _no_process_left()


@two_cpus
@pytest.mark.parametrize("slow", ["parent", "child"])
def test_two_processes_agree_whichever_runs_behind(monkeypatch, slow):
    # one side sleeps after each step, so the other waits at every step, or never
    alone = _alone(monkeypatch, build_partition, 3**7)
    home = os.getpid()
    step_done = greedy._Peer.step_done

    def late(peer):
        if (os.getpid() == home) == (slow == "parent"):
            time.sleep(0.0005)
        step_done(peer)

    monkeypatch.setattr(greedy._Peer, "step_done", late)
    monkeypatch.setattr(greedy, "_TWO_PROCESSES_FROM", 1)
    part = build_partition(3**7)
    assert part.rows == alone.rows
    assert np.array_equal(part._assignment, alone._assignment)
    _no_process_left()


@two_cpus
@pytest.mark.parametrize("row", [0, 1, 2, 46, 91, 92, 93, 94])
def test_two_processes_stop_at_their_row(row):
    full = build_partition(3**10)._assignment
    assert full.max() == 92
    assignment = greedy._assign(3**10, row)
    # no value is given a row past the one asked for
    assert np.array_equal(assignment, np.where(full <= row, full, -1))


@two_cpus
@pytest.mark.parametrize("failing_row", [1, 41])
def test_a_failing_child_fails_the_sieve_and_leaves_no_process(monkeypatch, capfd, failing_row):
    # the child fills the odd rows; the parent waits for none of row 41, the last one
    home = os.getpid()
    first = int(represent(2 * failing_row), 3)
    extend = greedy._extend_row

    def fails_in_the_child(forbidden, row, terms, x, hi):
        if os.getpid() != home and row and row[0] == first:
            raise ZeroDivisionError("in the child")
        extend(forbidden, row, terms, x, hi)

    monkeypatch.setattr(greedy, "_extend_row", fails_in_the_child)
    with pytest.raises(RuntimeError, match="sieve process"):
        sieve_row(3**10, 41)
    assert "ZeroDivisionError: in the child" in capfd.readouterr().err
    _no_process_left()


@two_cpus
def test_a_failing_parent_kills_its_child(monkeypatch, capfd):
    home = os.getpid()
    extend = greedy._extend_row

    def fails_in_the_parent(forbidden, row, terms, x, hi):
        if os.getpid() == home and x > 0:
            raise ZeroDivisionError("in the parent")
        extend(forbidden, row, terms, x, hi)

    monkeypatch.setattr(greedy, "_extend_row", fails_in_the_parent)
    with pytest.raises(ZeroDivisionError, match="in the parent"):
        sieve_row(3**10, 40)
    # killed, the child reports nothing of its own
    assert capfd.readouterr().err == ""
    _no_process_left()


@two_cpus
def test_a_sieve_leaves_no_process_and_restores_the_cpus(monkeypatch):
    pids = _forks(monkeypatch)
    assert len(build_partition(3**10).rows) == 93
    assert sieve_row(3**10, 40)[0] == int(represent(80), 3)
    assert len(pids) == 2
    _no_process_left()


@two_cpus
def test_a_failing_second_pipe_leaves_no_descriptor_open(monkeypatch):
    pipe = os.pipe
    calls = []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "pipe", second_fails)
    with pytest.raises(OSError) as exc:
        build_partition(BREAK_EVEN)
    assert exc.value.errno == errno.EMFILE and len(calls) == 2
    assert sorted(os.listdir("/proc/self/fd")) == before
    _no_process_left()


@two_cpus
def test_verify_workers_sieve_alone(monkeypatch):
    home = os.getpid()
    fork = os.fork

    def from_home_only():
        assert os.getpid() == home, "a verify worker forked"
        return fork()

    monkeypatch.setattr(os, "fork", from_home_only)
    # theorem1 sieves first_term_bound(73) = 50392 values in a worker
    assert first_term_bound(73) >= BREAK_EVEN
    report = verify.run_suite("all", max_value=2187, max_rows=73)
    assert report.passed and report.processes == 2
    _no_process_left()
