"""The three workloads: seeded request lists, how a request runs, and output checks.

A run issues passes of requests from one closed-loop client: the next
request is sent when the previous one has returned.  Pass k of a run is
built from (seed, k) alone, so the same seed gives the same requests.  The
package sees only the generated inputs.

partition  CLI `sequence` requests at 3^10, 3^11 and 3^12 by sieve, each
           with its `--method grid` twin, plus `cross --method both`.  The
           sieve does nearly all the work and its per-row forbidden arrays
           set peak memory; grid lookups and witnesses barely run.
lookup     distinct canonical {0,1,2}-strings of length 6..16: row_of,
           locate, cell at the located coordinate, and a witness for a row
           below.  Sparse, deep, never-repeated point queries with no sieve.
verify     `stanleygrid verify --suite all`: every layer on small dense
           inputs (radix sweeps, small sieves, dense windows, ~20k witnesses
           against the sieve oracle).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("partition", "lookup", "verify")

# -- partition ---------------------------------------------------------------

SIEVE_LIMITS = (3**10, 3**10, 3**11, 3**12)
# first_term_bound(C) stays within 50392..51021 for these counts, so each
# cross request sieves about the same range whatever the seed picks.
CROSS_COUNTS = (73, 89)
CROSS_REQUESTS = 8
MAX_ROW = 90  # every row below this opens by 3^10


def partition_requests(seed: int, k: int) -> list[tuple]:
    rng = random.Random(f"partition/{seed}/{k}")
    reqs = []
    for limit in SIEVE_LIMITS:
        row = rng.randrange(MAX_ROW)
        argv = ("sequence", "--row", str(row), "--limit", str(limit))
        reqs += [("cli", argv), ("cli", argv + ("--method", "grid"))]
    for _ in range(CROSS_REQUESTS):
        reqs.append(("cli", ("cross", "--count", str(rng.randint(*CROSS_COUNTS)), "--method", "both")))
    rng.shuffle(reqs)
    return reqs


def judge_partition(reqs, results) -> tuple[int, int]:
    """Each sieve `sequence` must print exactly what its grid twin prints."""
    ok = [r is not None and r[0] == 0 for r in results]
    twins: dict[tuple, list[tuple[int, str, str]]] = {}
    for i, (req, res) in enumerate(zip(reqs, results)):
        argv = req[1]
        if argv[0] == "sequence":
            method = "grid" if "grid" in argv else "greedy"
            twins.setdefault(argv[:5], []).append((i, method, res[1] if ok[i] else None))
        elif ok[i]:
            ok[i] = len(res[1].splitlines()) == int(argv[2])
    for group in twins.values():
        outs = {out for _, _, out in group}
        methods = {m for _, m, _ in group}
        if len(outs) != 1 or None in outs or "" in outs or methods != {"greedy", "grid"}:
            for i, _, _ in group:
                ok[i] = False
    return len(reqs), ok.count(False)


# -- lookup ------------------------------------------------------------------

LOOKUP_PASS = 500
LENGTHS = range(6, 17)
BLOCK = 8  # passes drawn from one systematic sample, so they share no string


def _suffix_cells() -> dict[tuple[int, int], Fraction]:
    """P(length L, main-suffix length S) for L uniform and the string uniform.

    A canonical string of length L starts with 2 (suffix L) or with 1, after
    which each digit is the first 2 with probability 1/3.  S = 0: no 2.
    """
    p = {}
    for L in LENGTHS:
        pl = Fraction(1, len(LENGTHS))
        p[(L, L)] = pl / 2
        for k in range(1, L):
            p[(L, L - k)] = pl / 2 * Fraction(2, 3) ** (k - 1) / 3
        p[(L, 0)] = pl / 2 * Fraction(2, 3) ** (L - 1)
    return p


def _quotas(n: int) -> list[tuple[tuple[int, int], int]]:
    """Split n requests over the (L, S) cells in proportion, largest remainder first."""
    p = _suffix_cells()
    quota = {c: int(v * n) for c, v in p.items()}
    short = n - sum(quota.values())
    for c in sorted(p, key=lambda c: (-(p[c] * n - quota[c]), c))[:short]:
        quota[c] += 1
    return sorted((c, q) for c, q in quota.items() if q)


def _cell_size(L: int, S: int) -> int:
    if S == L:
        return 3 ** (L - 1)
    if S == 0:
        return 2 ** (L - 1)
    return 2 ** (L - S - 1) * 3 ** (S - 1)


def _ternary(k: int, width: int) -> str:
    digits = []
    for _ in range(width):
        k, r = divmod(k, 3)
        digits.append("012"[r])
    return "".join(reversed(digits))


def _binary(k: int, width: int) -> str:
    return format(k, "b").zfill(width) if width else ""


def _nth_string(L: int, S: int, k: int) -> str:
    """The k-th string, in lexicographic order, of length L with main suffix S."""
    if S == L:
        return "2" + _ternary(k, L - 1)
    if S == 0:
        return "1" + _binary(k, L - 1)
    hi, lo = divmod(k, 3 ** (S - 1))
    return "1" + _binary(hi, L - S - 1) + "2" + _ternary(lo, S - 1)


def lookup_strings(seed: int, k: int, n: int = LOOKUP_PASS) -> list[str]:
    """Pass k's strings: a stratified systematic sample of canonical strings.

    Lengths are uniform on 6..16 and strings uniform within a length, as if
    drawn at random, but the count in each (length, main-suffix length) cell
    is fixed and each cell is sampled at an even stride from a seeded
    offset.  row_of's cost doubles with every main-suffix digit, so plain
    random draws would make a pass's cost swing with the seed.  Passes
    0..BLOCK-1 take interleaved elements of one sample and share no string.
    """
    block, k = divmod(k, BLOCK)
    rng = random.Random(f"lookup/{seed}/{block}")
    out = []
    for (L, S), q in _quotas(n):
        size, per_block = _cell_size(L, S), q * BLOCK
        assert size >= per_block, (L, S)
        off = rng.randrange(size)
        out += [_nth_string(L, S, ((i * BLOCK + k) * size + off) // per_block) for i in range(q)]
    random.Random(f"lookup/{seed}/{block}/{k}").shuffle(out)
    return out


def lookup_requests(seed: int, k: int) -> list[tuple]:
    """(x, u): u / 2^32 picks the witness target row below x's row."""
    rng = random.Random(f"lookup-rows/{seed}/{k}")
    return [("lookup", x, rng.getrandbits(32)) for x in lookup_strings(seed, k)]


def lookup_profile(reqs) -> dict:
    """Length histogram and the share of strings whose main suffix has >= 12 digits."""
    xs = [r[1] for r in reqs]
    long_suffix = sum(1 for x in xs if "2" in x and len(x) - x.index("2") >= 12)
    return {
        "lengths": dict(sorted(Counter(len(x) for x in xs).items())),
        "main_suffix_ge_12_share": long_suffix / len(xs),
    }


def judge_lookup(reqs, results) -> tuple[int, int]:
    failed = 0
    for req, res in zip(reqs, results):
        if res is None:
            failed += 1
            continue
        x, (row, coord, cell, j, pair) = req[1], res
        good = coord.row == row and cell == x
        if row > 0:
            c, d, v = pair.values
            good = good and pair.x == x and pair.target_row == j and c < d < v and d - c == v - d
        failed += not good
    return len(reqs), failed


# -- verify ------------------------------------------------------------------

MIN_CHECKS = 36  # checks in `verify --suite all` at the time the benchmark was written
VERDICT = re.compile(r"^suite all: PASS \((\d+)/(\d+) checks\)$")


def verify_requests(seed: int, k: int) -> list[tuple]:
    return [("cli", ("verify", "--suite", "all"))]


class VerifyJudge:
    """Checks the verdict and that stdout is byte-identical across runs.

    The digest of the first run's stdout is stored under `state_dir`, keyed
    by a hash of the package source, and later runs of the same source must
    match it.
    """

    def __init__(self, state_dir: Path, source_digest: str):
        self.path = state_dir / f"verify-stdout-{source_digest[:16]}.sha256"

    def __call__(self, reqs, results) -> tuple[int, int]:
        attempted = failed = 0
        for res in results:
            if res is None:
                attempted += MIN_CHECKS
                failed += MIN_CHECKS
                continue
            rc, out = res
            lines = out.splitlines()
            checks = [ln for ln in lines if ln.startswith(("ok  ", "FAIL"))]
            bad = sum(1 for ln in checks if ln.startswith("FAIL"))
            m = VERDICT.match(lines[-1]) if lines else None
            whole = (rc == 0 and m is not None and m[1] == m[2] == str(len(checks))
                     and len(checks) >= MIN_CHECKS and self._same_as_before(out))
            attempted += max(len(checks), MIN_CHECKS)
            failed += bad if whole else max(len(checks), MIN_CHECKS)
        return attempted, failed

    def _same_as_before(self, out: str) -> bool:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.path.is_file():
            return self.path.read_text().strip() == digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(digest + "\n")
        tmp.replace(self.path)
        return True


# -- running requests ----------------------------------------------------------

REQUESTS = {"partition": partition_requests, "lookup": lookup_requests, "verify": verify_requests}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "stanleygrid").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def judge_for(workload: str, state_dir: Path, src: Path):
    if workload == "partition":
        return judge_partition
    if workload == "lookup":
        return judge_lookup
    return VerifyJudge(state_dir, source_digest(src))


def execute(req: tuple, sg):
    """Run one request against the package namespace `sg`; returns its raw outputs."""
    if req[0] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sg.cli.main(list(req[1]))
        return rc, buf.getvalue()
    _, x, u = req
    row = sg.grid.row_of(x)
    coord = sg.fractal.locate(x)
    cell = sg.grid.cell(*coord)
    j = pair = None
    if row > 0:
        j = (u * row) >> 32
        pair, _ = sg.witness.witness(x, j)
    return row, coord, cell, j, pair


def requests_digest(reqs) -> str:
    return hashlib.sha256(repr(reqs).encode()).hexdigest()
