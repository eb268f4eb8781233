"""Shared pytest set-up: a reproducible Hypothesis profile for every test module,
and the brute-force witness oracle the witness tests compare against."""

from hypothesis import settings

from stanleygrid.fractal import locate
from stanleygrid.greedy import GreedyPartition, InsufficientRangeError
from stanleygrid.radix import BASE_3, represent
from stanleygrid.witness import NotApplicableError, WitnessPair

# derandomize: the same examples on every run; deadline=None: run time per
# example swings with host load and is not what the property tests check;
# database=None: no example store carried between runs.
settings.register_profile("stanleygrid", derandomize=True, deadline=None, database=None)
settings.load_profile("stanleygrid")


def witness_oracle(x: str, j: int, partition: GreedyPartition) -> WitnessPair | None:
    """Brute-force witness: scan row j of a sieved partition directly.

    Returns the pair with the smallest d (then smallest c), or None if the
    row holds no witnesses below the partition bound.
    """
    row_of_x = locate(x).row           # also validates x
    if row_of_x <= j:
        raise NotApplicableError(f"{x!r} lies in row {row_of_x}, not below target row {j}")
    v = int(x, 3)
    if v >= partition.bound:
        raise InsufficientRangeError(
            f"[x]_3 = {v} is outside the sieved range [0, {partition.bound})",
            required_bound=v + 1,
        )
    row = partition.row(j)
    members = set(row)
    for b in row:
        if 2 * b >= v and b < v and (2 * b - v) in members:
            return WitnessPair(
                x=x, target_row=j, c=represent(2 * b - v, BASE_3), d=represent(b, BASE_3)
            )
    return None
