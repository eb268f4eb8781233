"""Bundled OEIS reference prefixes in b-file format.

A b-file is plain text, one "index value" pair per line, with '#' comment
lines and blank lines skipped.  Only short prefixes are bundled -- enough
to pin down the sequences the package computes -- so everything works
offline.
"""

from __future__ import annotations

from importlib import resources

from .radix import _ReadOnly

_BUNDLED_OFFSETS = {
    "A024629": 0,   # n written in base 3/2
    "A005836": 1,   # integers with no 2 in base 3 (row 0)
    "A323398": 1,   # second greedy 3-free row
    "A265316": 0,   # first term of each greedy row
}


class BFileFormatError(ValueError):
    """A b-file line is not an "index value" pair."""


class ReferenceSequence(_ReadOnly):
    """A b-file prefix: its OEIS id, its first index and its (index, value) pairs.

    Read-only; its length is its number of terms.
    """

    _fields = ("sequence_id", "offset", "terms")

    def __init__(self, sequence_id: str, offset: int, terms: tuple[tuple[int, int], ...]):
        vars(self).update(sequence_id=sequence_id, offset=offset, terms=terms)

    @property
    def values(self) -> list[int]:
        return [v for _, v in self.terms]

    def __len__(self) -> int:
        return len(self.terms)


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """Parse b-file text into (index, value) pairs, preserving order."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileFormatError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise BFileFormatError(f"line {lineno}: {exc}") from None
    return tuple(out)


def bundled(sequence_id: str) -> ReferenceSequence:
    """Load one of the bundled reference prefixes by its OEIS id."""
    sid = sequence_id.upper()
    if sid not in _BUNDLED_OFFSETS:
        raise KeyError(f"no bundled data for {sequence_id!r}; have {sorted(_BUNDLED_OFFSETS)}")
    text = resources.files("stanleygrid.data").joinpath(f"{sid.lower()}.txt").read_text("ascii")
    terms = parse_bfile(text)
    seq = ReferenceSequence(sequence_id=sid, offset=_BUNDLED_OFFSETS[sid], terms=terms)
    if terms and terms[0][0] != seq.offset:
        raise BFileFormatError(f"{sid}: first index {terms[0][0]} != offset {seq.offset}")
    return seq


def bundled_ids() -> list[str]:
    return sorted(_BUNDLED_OFFSETS)
