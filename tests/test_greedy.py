"""The greedy sieve into 3-free rows."""

import tracemalloc

import numpy as np
import pytest

from stanleygrid import greedy, grid
from stanleygrid.greedy import (
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
    fill = greedy._fill_row

    def spy(forbidden, n, terms):
        starts.append(n)
        return fill(forbidden, n, terms)

    monkeypatch.setattr(greedy, "_fill_row", spy)
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


def test_first_terms_rejects_negative_count(part729):
    with pytest.raises(ValueError):
        cross_sequence(part729, -1)
    assert cross_sequence(part729, 0) == []
