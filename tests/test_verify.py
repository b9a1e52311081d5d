import pytest

from char2orbits import cli
from char2orbits import verify as vf


def test_check_result_line_format():
    good = vf.CheckResult("sp", "round-trips", True, 0.5, "all fine")
    assert good.line() == "PASS sp/round-trips (0.50s) all fine"
    bad = vf.CheckResult("sp", "round-trips", False, 1.25, "broke")
    assert bad.line().startswith("FAIL sp/round-trips (1.25s)")


def test_every_suite_name_is_registered():
    # cli lists the suites without importing verify; the order is run order
    assert cli.SUITES == vf.SUITE_NAMES == tuple(vf.SUITES)
    for checks in vf.SUITES.values():
        assert checks
        names = [name for name, _ in checks]
        assert len(names) == len(set(names))


def test_oracle_cap_clamps_to_desk_scale():
    assert vf._oracle_cap(None) == 2
    assert vf._oracle_cap(1) == 1
    assert vf._oracle_cap(7) == 2
    assert vf._oracle_cap(0) == 1


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        vf.run_suite("nope")


def test_combinatorics_suite_passes():
    results = vf.run_suite("combinatorics", max_n=4)
    assert [r.suite for r in results] == ["combinatorics"] * len(results)
    assert all(r.passed for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_check_exceptions_become_failures(monkeypatch):
    def boom(max_n):
        raise RuntimeError("census went missing")

    monkeypatch.setitem(vf.SUITES, "combinatorics", (("boom", boom),))
    results = vf.run_suite("combinatorics")
    assert len(results) == 1
    assert not results[0].passed
    assert "RuntimeError: census went missing" in results[0].detail


def test_census_is_memoized():
    first = vf.census("sp", 1, 1)
    assert vf.census("sp", 1, 1) is first
    assert sum(r.orbit_size for r in first) == 4
