"""The runner behind the `verify` CLI command: caps, the report and run_suite.

The checks themselves live in `checks`, one function per suite.  run_suite
imports that module when it runs, so importing this one (as the package
and the CLI do, for the caps) compiles none of the checks.  Reports carry
no timestamps or timings, so repeated runs are byte-identical; wall-clock
durations, and when and in which process each suite ran, are kept
separately on the report and on each check for callers that want them.

The suites share no state, so `run_suite` runs several of them side by
side, in forked worker processes, theorem1 first, and gathers their
results in suite order: the report is the same as from one process.  The
workers are forked because a forked child runs the parent's code as it
stands, replaced attributes included (the tests swap functions for
mutants), and re-imports nothing.  `run_suite` loads the checks and numpy
before it forks, so each worker has them already; a spawned child would
import the package and numpy anew, about 80 ms, and lose the replacements.

A fork copies only the calling thread.  A worker runs the suites and
nothing else: the checks and the package code under them, numpy included.
The pool forks every worker before it starts threads of its own, and after
numpy has started OpenBLAS's thread, which OpenBLAS's fork handler stops
before each fork.  The suites call no BLAS: their matrix products are
int64, which numpy computes without it.  A test in tests/test_verify.py
counts the threads at each fork.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import TYPE_CHECKING, NamedTuple

from . import greedy, radix

if TYPE_CHECKING:
    from .checks import CheckResult

DEFAULT_MAX_VALUE = 3**12          # 531441
DEFAULT_MAX_ROWS = 500
DEFAULT_ROWS = 200                 # rows verify checks when --max-rows is not given
CAP_ENV_VAR = "STANLEY_GRID_CAP"
# checks._RUNNERS names the same suites in the same order; argparse's choices read this
SUITES = ("radix", "greedy", "grid", "fractal", "witness", "refdata", "theorem1", "theorem2", "all")


class CapExceededError(RuntimeError):
    """A requested sweep size exceeds the configured safety cap."""


class SuiteSpan(NamedTuple):
    """When one suite ran, in seconds from run_suite's start, and in which of its processes."""

    suite: str
    start_s: float
    end_s: float
    process: int                       # 1 .. the report's processes


class VerificationReport(NamedTuple):
    suite: str
    results: list[CheckResult]
    duration_s: float = 0.0
    processes: int = 1                 # processes that ran suites
    timeline: tuple[SuiteSpan, ...] = ()   # one span per suite run, in suite order

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            tail = f" -- {r.detail}" if (r.detail and not r.passed) else ""
            lines.append(f"{mark} {r.name} (checked {r.checked}){tail}")
        verdict = "PASS" if self.passed else "FAIL"
        n_ok = sum(1 for r in self.results if r.passed)
        lines.append(f"suite {self.suite}: {verdict} ({n_ok}/{len(self.results)} checks)")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "checked": r.checked, "detail": r.detail}
                for r in self.results
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"


def resolve_caps() -> tuple[int, int]:
    """Current (max_value, max_rows) caps; STANLEY_GRID_CAP overrides.

    The env var is either "VALUE" or "VALUE,ROWS", each a numeral that
    radix.from_decimal reads; anything else, or a cap below 1, raises
    ValueError.
    """
    raw = os.environ.get(CAP_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_MAX_VALUE, DEFAULT_MAX_ROWS
    read = radix.from_decimal
    try:
        value, rows = map(read, raw.split(",")) if "," in raw else (read(raw), DEFAULT_MAX_ROWS)
    except ValueError:
        raise ValueError(f"cannot parse {CAP_ENV_VAR}={raw!r}; use VALUE or VALUE,ROWS") from None
    if value < 1 or rows < 1:
        raise ValueError(f"{CAP_ENV_VAR}={raw!r}: caps must be positive")
    return value, rows


def check_cap(what: str, amount: int, rows: bool = False) -> None:
    """Refuse a request whose `amount` exceeds the value cap (the row cap if `rows`).

    Every cap check in the package goes through here, before any work.
    """
    cap_value, cap_rows = resolve_caps()
    cap = cap_rows if rows else cap_value
    if amount > cap:
        kind = "row cap" if rows else "cap"
        raise CapExceededError(f"{what} is {amount}, beyond {kind} {cap} (raise via {CAP_ENV_VAR})")


def _workers(suites: int) -> int:
    """Processes to run `suites` suites in: one per CPU this process may use, at
    most one per suite, and only this one where Python cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)     # CPython has it on Linux only
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, suites)
    if workers < 2:
        return 1
    # imported here, not at the top: every importer of the package would pay their 13-18 ms
    import multiprocessing
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def run_suite(name: str, max_value: int | None = None, max_rows: int | None = None) -> VerificationReport:
    """Run one suite (or "all") and return its report.

    Several suites run side by side, one forked worker process per CPU (at
    most one per suite), theorem1 started first; their results are gathered
    in suite order, so the report does not depend on which finished first.
    The workers are forked, not spawned, so they run the code as it stands
    in this process, replaced attributes included, and import nothing
    again.  Every worker is joined before this returns or raises, and an
    exception from a suite reaches the caller as itself.  A single suite, a
    single CPU, or a Python without fork runs the suites in this process.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    mv = DEFAULT_MAX_VALUE if max_value is None else max_value
    mr = DEFAULT_ROWS if max_rows is None else max_rows
    if mv < 1:
        raise ValueError(f"--max-value must be >= 1, got {mv}")
    if mr < 1:
        raise ValueError(f"--max-rows must be >= 1, got {mr}")
    check_cap("--max-value", mv)
    check_cap("--max-rows", mr, rows=True)
    if name in ("theorem1", "all"):
        check_cap(f"the sieve bound for {mr} rows", greedy.first_term_bound(mr))

    # loaded only now, so no other command compiles the checks; before any fork,
    # so every worker has them, replaced attributes included
    from . import checks

    order = [s for s in checks._START_ORDER if name in (s, "all")]
    workers = _workers(len(order))
    t0 = time.perf_counter()
    if workers > 1:
        import concurrent.futures
        import importlib
        import multiprocessing

        # the radix and greedy checks use numpy: loaded here once, the
        # workers have it from the fork and none loads it again
        importlib.import_module("numpy")
        # multiprocessing flushes the standard streams before each fork,
        # so what is buffered now is not written again by a worker
        with concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = dict(zip(order, pool.map(checks._run, order, itertools.repeat(mv),
                                            itertools.repeat(mr))))
    else:
        done = {suite: checks._run(suite, mv, mr) for suite in order}
    duration = time.perf_counter() - t0
    ran = [suite for suite in SUITES if suite in done]
    index = {}                         # pid -> 1, 2, ... in the order the processes began a suite
    for _, pid, start, _ in sorted(done.values(), key=lambda run: run[2]):
        index.setdefault(pid, len(index) + 1)
    timeline = tuple(SuiteSpan(s, done[s][2] - t0, done[s][3] - t0, index[done[s][1]]) for s in ran)
    return VerificationReport(suite=name, results=[r for suite in ran for r in done[suite][0]],
                              duration_s=duration, processes=workers, timeline=timeline)
