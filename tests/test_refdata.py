"""Bundled b-files and the parser."""

import pytest

from stanleygrid.radix import BASE_3, represent
from stanleygrid.refdata import (
    BFileFormatError,
    bundled,
    bundled_ids,
    parse_bfile,
)


def test_parse_basic():
    assert parse_bfile("0 0\n1 2\n2 7\n") == ((0, 0), (1, 2), (2, 7))


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n  # indented comment\n5 125\n\n6 216\n"
    assert parse_bfile(text) == ((5, 125), (6, 216))


def test_parse_rejects_garbage():
    with pytest.raises(BFileFormatError):
        parse_bfile("1 2 3\n")
    with pytest.raises(BFileFormatError):
        parse_bfile("a b\n")


def test_bundled_ids():
    assert bundled_ids() == ["A005836", "A024629", "A265316", "A323398"]


def test_bundled_offsets_and_lengths():
    assert bundled("A024629").offset == 0
    assert bundled("A005836").offset == 1
    assert bundled("A323398").offset == 1
    assert bundled("A265316").offset == 0
    assert len(bundled("A024629")) == 13
    assert len(bundled("A005836")) == 16
    assert len(bundled("A323398")) == 16
    assert len(bundled("A265316")) == 10


def test_bundled_unknown():
    with pytest.raises(KeyError):
        bundled("A000001")


def test_prefixes_match_computation():
    assert bundled("A024629").values == [int(represent(n)) for n in range(13)]
    no2 = [n for n in range(50) if "2" not in represent(n, BASE_3)][:16]
    assert bundled("A005836").values == no2
    cross = bundled("A265316").values
    assert cross == [int(represent(2 * i), 3) for i in range(10)]
