"""Command line behaviour and exit codes."""

import json
import re
import subprocess
import sys
import time

import pytest

from stanleygrid import cli, greedy, radix


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(code, out, err, *pinned):
    """A cap breach: exit 4, nothing on stdout, the override named on stderr."""
    assert code == 4 and out == "" and "STANLEY_GRID_CAP" in err
    assert all(p in err for p in pinned), err


def test_convert_to_digits(capsys):
    code, out, _ = run_cli(capsys, "convert", "--value", "12")
    assert code == 0 and out.strip() == "2120"


def test_convert_from_digits(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from-digits", "212021")
    assert code == 0 and out.strip() == "31"
    code, out, _ = run_cli(capsys, "convert", "--from-digits", "11")
    assert code == 0 and out.strip() == "5/2"
    code, out, _ = run_cli(capsys, "convert", "--base", "3", "--from-digits", "2120")
    assert code == 0 and out.strip() == "69"


def test_convert_bad_digit(capsys):
    code, _, err = run_cli(capsys, "convert", "--from-digits", "31")
    assert code == 2 and "digit" in err


@pytest.mark.parametrize("row,limit,want", [
    ("1", "84", [2, 5, 6, 11, 14, 15, 18, 29, 32, 33, 38, 41, 42, 45, 54, 83]),
    ("0", "1", [0]),
], ids=["row1-limit84", "row0-limit1"])
def test_sequence_methods_agree(capsys, row, limit, want):
    code, out_greedy, _ = run_cli(capsys, "sequence", "--row", row, "--limit", limit)
    assert code == 0
    code, out_grid, _ = run_cli(capsys, "sequence", "--row", row, "--limit", limit,
                                "--method", "grid")
    assert code == 0
    assert out_greedy == out_grid
    assert [int(x) for x in out_greedy.split()] == want


def test_sequence_empty_row(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--row", "2", "--limit", "1")
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "sequence", "--row", "2", "--limit", "1",
                           "--method", "grid")
    assert code == 0 and out == ""


@pytest.mark.parametrize("limit", [84, 3**7])
def test_sequence_prints_the_row_of_the_full_sieve(capsys, limit):
    part = greedy.build_partition(limit)
    for row in (0, part.num_rows - 1, part.num_rows):
        want = list(part.row(row))
        code, out, _ = run_cli(capsys, "sequence", "--row", str(row), "--limit", str(limit))
        assert code == 0 and out == "".join(f"{v}\n" for v in want)
        code, out, _ = run_cli(capsys, "sequence", "--row", str(row), "--limit", str(limit),
                               "--json")
        assert code == 0 and out == json.dumps(want, separators=(",", ":")) + "\n"
    assert want == [] and out == "[]\n"


@pytest.mark.parametrize("method", ["greedy", "grid"])
@pytest.mark.parametrize("row,limit", [("-1", "10"), ("0", "0"), ("0", "-5")])
def test_sequence_rejects_negative_row_and_empty_limit(capsys, method, row, limit):
    code, out, err = run_cli(capsys, "sequence", "--row", row, "--limit", limit,
                             "--method", method)
    assert code == 2 and out == "" and "must be" in err


@pytest.mark.parametrize("method", ["greedy", "grid", "both"])
def test_cross_rejects_negative_count(capsys, method):
    code, out, err = run_cli(capsys, "cross", "--count", "-1", "--method", method)
    assert code == 2 and out == "" and "--count" in err
    code, out, _ = run_cli(capsys, "cross", "--count", "0", "--method", method)
    assert code == 0 and out == ""


def test_sequence_json(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--row", "0", "--limit", "5", "--json")
    assert code == 0 and json.loads(out) == [0, 1, 3, 4]


def test_cross_text(capsys):
    code, out, _ = run_cli(capsys, "cross", "--count", "5")
    assert code == 0
    assert out.splitlines() == ["0 0", "2 2", "7 21", "21 210", "23 212"]


def test_cross_json(capsys):
    code, out, _ = run_cli(capsys, "cross", "--count", "10", "--json",
                           "--method", "greedy")
    assert code == 0
    doc = json.loads(out)
    assert [d["value"] for d in doc] == [0, 2, 7, 21, 23, 64, 69, 71, 193, 207]
    assert doc[9]["digits"] == "21200"


def test_cross_cap(capsys):
    # first_term_bound(300) is 1377548, above the default value cap 3^12
    for method in ("both", "greedy"):
        code, out, err = run_cli(capsys, "cross", "--count", "300", "--method", method)
        assert_refused(code, out, err, "300 rows", "cap 531441")


@pytest.mark.parametrize("method", ["greedy", "grid", "both"])
def test_cross_obeys_the_row_cap(capsys, monkeypatch, method):
    monkeypatch.setenv("STANLEY_GRID_CAP", "100000,10")
    code, out, err = run_cli(capsys, "cross", "--count", "40", "--method", method)
    assert_refused(code, out, err, "row cap 10")
    code, out, _ = run_cli(capsys, "cross", "--count", "10", "--method", method)
    assert code == 0 and len(out.splitlines()) == 10


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STANLEY_GRID_CAP", "50")
    code, out, err = run_cli(capsys, "sequence", "--row", "0", "--limit", "100")
    assert_refused(code, out, err, "cap 50")
    monkeypatch.setenv("STANLEY_GRID_CAP", "1000000")
    code, out, _ = run_cli(capsys, "cross", "--count", "250", "--method", "grid")
    assert code == 0 and len(out.splitlines()) == 250


@pytest.mark.parametrize("method", ["greedy", "grid"])
def test_sequence_obeys_the_value_cap(capsys, monkeypatch, method):
    monkeypatch.setenv("STANLEY_GRID_CAP", "50")
    code, out, err = run_cli(capsys, "sequence", "--row", "0", "--limit", "100",
                             "--method", method)
    assert_refused(code, out, err, "cap 50")
    code, out, _ = run_cli(capsys, "sequence", "--row", "0", "--limit", "50",
                           "--method", method)
    assert code == 0 and len(out.splitlines()) == 16


def test_grid_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "grid", "--rows", "4", "--cols", "6")
    assert code == 0
    assert "2010" in out
    code, out, _ = run_cli(capsys, "grid", "--rows", "2", "--cols", "3",
                           "--format", "csv")
    assert code == 0 and out == "0,1,10\n2,20,12\n"


def test_grid_json_to_file(capsys, tmp_path):
    target = tmp_path / "win.json"
    code, out, _ = run_cli(capsys, "grid", "--rows", "2", "--cols", "2",
                           "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == [["0", "1"], ["2", "20"]]


def test_witness_json(capsys):
    code, out, _ = run_cli(capsys, "witness", "212", "--target-row", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "12" and doc["d"] == "112"
    assert doc["values_base3"] == [5, 14, 23]
    assert doc["trace"] == ["keep-2", "append-0mod3", "append-0mod3", "degenerate"]


def test_witness_row0(capsys):
    code, out, _ = run_cli(capsys, "witness", "212", "--target-row", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "10" and doc["d"] == "111"
    assert out == ('{"x":"212","j":0,"c":"10","d":"111","values_base3":[3,13,23],'
                   '"trace":["append-0mod3","append-0mod3","append-0mod3","degenerate"]}\n')


def test_witness_row1_example_line(capsys):
    code, out, _ = run_cli(capsys, "witness", "11102010220102110110011000",
                           "--target-row", "1")
    assert code == 0
    assert out == ('{"x":"11102010220102110110011000","j":1,'
                   '"c":"11100010000100110100012000","d":"11101010110101110101200000",'
                   '"values_base3":[1225028612079,1235661684687,1246294757295],'
                   '"trace":["keep-0","keep-0","keep-0","iterative","peculiar",'
                   + '"append-0mod3",' * 16 + '"degenerate"]}\n')


def test_witness_of_a_5000_digit_numeral(capsys):
    # int(s, 3) refuses strings of more than 4300 digits by default
    x = "21" * 2500
    code, out, _ = run_cli(capsys, "witness", x, "--target-row", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == x and doc["trace"] == ["append-0mod3"] * 5000 + ["degenerate"]
    c3, d3, x3 = doc["values_base3"]
    assert c3 < d3 < x3 and d3 - c3 == x3 - d3


def read_numeral(text, base):
    """The value of a numeral, read 1000 digits per int() call (int() refuses more than 4300)."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * base ** len(chunk) + int(chunk, base)
    return value


def run_within(capsys, seconds, *argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < seconds
    assert code == 0, err
    return out


def test_witness_of_a_9200_digit_numeral(capsys):
    # its values have about 4400 decimal digits, past what str() writes in one call
    x = "21" * 4600
    out = run_within(capsys, 10, "witness", x, "--target-row", "0")
    trace = re.escape('"append-0mod3",' * 9200 + '"degenerate"')
    doc = re.fullmatch(r'\{"x":"(\d+)","j":0,"c":"(\d+)","d":"(\d+)",'
                       r'"values_base3":\[(\d+),(\d+),(\d+)\],"trace":\[' + trace + r'\]\}\n', out)
    assert doc and doc[1] == x
    c3, d3, x3 = (read_numeral(doc[i], 10) for i in (4, 5, 6))
    assert (c3, d3, x3) == tuple(read_numeral(doc[i], 3) for i in (2, 3, 1))
    assert x3 > 10**4300 and c3 < d3 < x3 and d3 - c3 == x3 - d3


def test_convert_a_5001_digit_value(capsys):
    value = "7" * 5001
    out = run_within(capsys, 10, "convert", "--value", value)
    v, e = radix.scaled_value(out.strip())
    assert v == read_numeral(value, 10) * 2**e


def test_convert_10000_base_3_digits(capsys):
    digits = "21" * 5000
    out = run_within(capsys, 10, "convert", "--base", "3", "--from-digits", digits)
    assert len(out.strip()) == 4772
    assert read_numeral(out.strip(), 10) == read_numeral(digits, 3)


def test_sequence_row_0_at_the_value_cap(capsys):
    # the full sieve below 3^12 takes seconds; row 0 is filled before any other row
    out = run_within(capsys, 1.5, "sequence", "--row", "0", "--limit", str(3**12))
    assert len(out.splitlines()) == 2**12
    assert out.startswith("0\n1\n3\n4\n9\n") and out.endswith("\n265720\n")


def test_witness_has_no_direct_flag(capsys):
    code, out, _ = run_cli(capsys, "witness", "212", "--target-row", "1", "--direct")
    assert code == 2 and out == ""


def test_witness_not_applicable(capsys):
    code, _, err = run_cli(capsys, "witness", "1", "--target-row", "0")
    assert code == 2 and "row" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "refdata", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "refdata" and doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_reports_failures(capsys, monkeypatch):
    from stanleygrid import verify as vmod

    def fake_suite():
        return [vmod.CheckResult(name="always-wrong", passed=False, checked=1, detail="boom")]

    monkeypatch.setattr(vmod, "suite_refdata", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "refdata")
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("flag,value", [("--max-value", "0"), ("--max-value", "-3"),
                                        ("--max-rows", "0"), ("--max-rows", "-1")])
def test_verify_rejects_bounds_below_one(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", "fractal", flag, value)
    assert code == 2 and out == "" and flag in err


def test_run_suite_rejects_bounds_below_one():
    from stanleygrid import verify as vmod

    with pytest.raises(ValueError, match="--max-value"):
        vmod.run_suite("greedy", max_value=0)
    with pytest.raises(ValueError, match="--max-rows"):
        vmod.run_suite("theorem1", max_rows=-1)


def test_verify_greedy_below_the_bundled_terms(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "greedy", "--max-value", "50")
    assert code == 0 and "suite greedy: PASS" in out
    assert "cross-prefix-vs-A265316 (checked 5)" in out    # 0, 2, 7, 21, 23 lie below 50


def test_verify_max_rows_above_200(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fractal", "--max-rows", "205")
    assert code == 0 and "column-0-minimal-and-increasing (checked 205)" in out


def test_verify_theorem1_rows_beyond_the_value_cap(capsys):
    # first_term_bound(300) is 1377548, above the default value cap 3^12
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem1", "--max-rows", "300")
    assert_refused(code, out, err, "300 rows", "cap 531441")


@pytest.mark.parametrize("env,flag,value,pinned", [
    ("100", "--max-value", "101", "cap 100"),
    ("531441,10", "--max-rows", "11", "row cap 10"),
])
def test_verify_obeys_the_caps(capsys, monkeypatch, env, flag, value, pinned):
    monkeypatch.setenv("STANLEY_GRID_CAP", env)
    code, out, err = run_cli(capsys, "verify", "--suite", "refdata", flag, value)
    assert_refused(code, out, err, flag, pinned)
    code, out, _ = run_cli(capsys, "verify", "--suite", "refdata", flag, str(int(value) - 1))
    assert code == 0 and "suite refdata: PASS" in out


def test_verify_refuses_before_any_suite_runs(capsys, monkeypatch):
    from stanleygrid import verify as vmod

    calls = []
    monkeypatch.setattr(vmod, "suite_radix", lambda mv: calls.append(mv) or [])
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-rows", "300")
    assert_refused(code, out, err, "300 rows", "cap 531441")
    assert calls == []


@pytest.mark.parametrize("env", ["abc", "5,x", "0", "100,0", "1,2,3"])
def test_malformed_cap_override_is_a_usage_error(capsys, monkeypatch, env):
    monkeypatch.setenv("STANLEY_GRID_CAP", env)
    code, out, err = run_cli(capsys, "sequence", "--row", "0", "--limit", "5")
    assert code == 2 and out == "" and "STANLEY_GRID_CAP" in err


def test_verify_timings_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "refdata", "--timings")
    assert code == 0
    assert "took" in err and "took" not in out


def test_verify_runs_are_identical():
    cmd = [sys.executable, "-m", "stanleygrid.cli", "verify", "--suite", "refdata"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=120)
    r2 = subprocess.run(cmd, capture_output=True, timeout=120)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_render_svg(capsys):
    code, out, _ = run_cli(capsys, "render", "--levels", "2", "--rows", "6",
                           "--cols", "8")
    assert code == 0
    assert out.startswith("<svg") or out.startswith("<?xml") or "<svg" in out
    assert out.count("<circle") == 48
    assert "<polyline" in out


def test_render_figure_layout(capsys):
    code, out, _ = run_cli(capsys, "render", "--levels", "1", "--rows", "18",
                           "--cols", "16")
    assert code == 0
    # 96 complete triples in an 18 x 16 window, one polyline each
    assert out.count("<polyline") == 96


def test_render_ascii(capsys):
    code, out, _ = run_cli(capsys, "render", "--levels", "1", "--rows", "4",
                           "--cols", "4", "--format", "ascii")
    assert code == 0
    assert out.count("o") == 16
    assert "-" in out and "/" in out


@pytest.mark.parametrize("argv", [
    ("grid",),
    ("render", "--format", "ascii"),
    ("render", "--format", "svg"),
])
def test_windows_obey_the_value_cap(capsys, monkeypatch, argv):
    monkeypatch.setenv("STANLEY_GRID_CAP", "100")
    code, out, err = run_cli(capsys, *argv, "--rows", "20", "--cols", "20")
    assert_refused(code, out, err, "cap 100")
    code, out, _ = run_cli(capsys, *argv, "--rows", "10", "--cols", "10")
    assert code == 0 and out


def test_windows_obey_the_default_cap(capsys):
    # 730 x 730 is the smallest square window above the default cap of 3^12 cells
    code, out, err = run_cli(capsys, "grid", "--rows", "730", "--cols", "730")
    assert_refused(code, out, err, "cap 531441")
    code, out, _ = run_cli(capsys, "render", "--format", "ascii")   # the 18 x 16 default
    assert code == 0 and out.count("o") == 18 * 16


def test_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 2
    captured = capsys.readouterr()
    assert cli.main(["sequence", "--row", "1"]) == 2  # missing --limit
    capsys.readouterr()


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "stanleygrid.cli", "convert", "--value", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0 and out.stdout.strip() == "22"
