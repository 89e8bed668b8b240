"""Unit-line parsing, failure counting and the paper-error figure."""

import statistics

import pytest

import checks

PLAIN = (
    "unit {index:06d} n=8 m={m} r={r} p=1 priority=processors {buffering} "
    "tie=random workload=uniform method=simulation seed=1985 cycles=2000 "
    "ebw={ebw:.6f} putil=0.250000 butil=0.998000"
)
LATENCY = (
    " lat_count={count} "
    + " ".join(
        f"{family}_{stat}={{value}}"
        for family in ("wait", "serv", "lat")
        for stat in ("mean", "p50", "p90", "p99", "max")
    )
)


def line(index, m=4, r=2, ebw=1.998, buffered=False):
    buffering = "buffered(depth=1)" if buffered else "unbuffered"
    return PLAIN.format(index=index, m=m, r=r, buffering=buffering, ebw=ebw)


def report(count):
    return "\n".join(line(i) for i in range(count)) + "\n"


def test_parses_a_plain_unit_line():
    unit = checks.parse_unit_line(line(7, m=16, r=12, ebw=5.9, buffered=True))
    assert unit["index"] == 7
    assert (unit["n"], unit["m"], unit["r"]) == (8, 16, 12)
    assert unit["buffered"] and not unit["latency"]
    assert unit["ebw"] == 5.9 and unit["cycles"] == 2000


def test_parses_latency_columns_and_nan_only_when_empty():
    full = line(0) + LATENCY.format(count=12, value="3.500000")
    assert checks.parse_unit_line(full)["latency"]
    empty = line(0) + LATENCY.format(count=0, value="nan")
    assert checks.parse_unit_line(empty)["latency"]
    assert checks.parse_unit_line(line(0) + LATENCY.format(count=3, value="nan")) is None


@pytest.mark.parametrize(
    "bad",
    ["", "unit 12 n=8", line(0)[:-3], line(0) + " extra=1", "x" + line(0)],
)
def test_rejects_malformed_lines(bad):
    assert checks.parse_unit_line(bad) is None


def test_complete_report_has_no_failures():
    failed, units = checks.failed_units(report(5), 5, 2000, 1985, latency=False)
    assert failed == set() and len(units) == 5


def test_truncated_stdout_fails_the_missing_units():
    truncated = "\n".join(report(5).splitlines()[:3])
    failed, _ = checks.failed_units(truncated, 5, 2000, 1985, latency=False)
    assert failed == {3, 4}


def test_duplicated_stdout_fails_every_repeated_unit():
    doubled = report(5) + report(5)
    failed, _ = checks.failed_units(doubled, 5, 2000, 1985, latency=False)
    assert failed == {0, 1, 2, 3, 4}


def test_an_unattributable_line_fails_the_whole_invocation():
    garbled = report(5) + "Traceback (most recent call last):\n"
    failed, _ = checks.failed_units(garbled, 5, 2000, 1985, latency=False)
    assert failed == {0, 1, 2, 3, 4}


def test_wrong_cycles_missing_latency_or_paper_miss_fail_that_unit():
    lines = report(4).splitlines()
    lines[1] = lines[1].replace("cycles=2000", "cycles=1999")
    lines[2] = line(2, ebw=1.998 * (1 + 2 * checks.PAPER_TOLERANCE))
    failed, _ = checks.failed_units("\n".join(lines), 4, 2000, 1985, latency=False)
    assert failed == {1, 2}
    failed, _ = checks.failed_units(report(2), 2, 2000, 1985, latency=True)
    assert failed == {0, 1}


def test_ebw_error_against_hand_computed_values():
    # Table 3(a) (m=4, r=2) reads 1.998; Table 4 (m=8, r=8) reads 4.943.
    units = [
        checks.parse_unit_line(line(0, m=4, r=2, ebw=2.0)),
        checks.parse_unit_line(line(1, m=8, r=8, ebw=5.0, buffered=True)),
        checks.parse_unit_line(line(2, m=5, r=2, ebw=9.0)),  # unpublished
    ]
    errors = checks.ebw_errors(units)
    assert errors == pytest.approx([0.002 / 1.998, 0.057 / 4.943])
    assert statistics.fmean(errors) == pytest.approx(0.0062663, abs=1e-7)


def test_summary_line_and_differing_lines():
    stderr = "[scenario table3a: 42 units]\n[42 units in 0.4s, 0 from cache]\n"
    assert checks.parse_summary(stderr) == (42, 0)
    assert checks.parse_summary("no summary") is None
    assert checks.differing_lines("a\nb\nc", "a\nx\nc\nd") == {1, 3}
