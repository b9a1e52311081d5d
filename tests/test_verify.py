import copy
import hashlib
import json
import pickle
import re
from pathlib import Path

import pytest

from char2orbits import cli
from char2orbits import oracle as orc
from char2orbits import verify as vf


def test_check_result_line_format():
    good = vf.CheckResult("sp", "round-trips", True, 0.5, "all fine")
    assert good.line() == "PASS sp/round-trips (0.50s) all fine"
    bad = vf.CheckResult("sp", "round-trips", False, 1.25, "broke")
    assert bad.line().startswith("FAIL sp/round-trips (1.25s)")


def test_check_results_survive_pickle_and_copy():
    result = vf.CheckResult("sp", "round-trips", False, 1.25, "broke")
    assert repr(result) == ("CheckResult(suite='sp', name='round-trips', "
                            "passed=False, seconds=1.25, detail='broke')")
    for other in (pickle.loads(pickle.dumps(result)), copy.copy(result),
                  copy.deepcopy(result)):
        assert type(other) is vf.CheckResult
        assert repr(other) == repr(result) and other.line() == result.line()


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


def test_max_n_lowers_the_combinatorics_caps_and_never_raises_them():
    details = [r.detail for r in vf.run(("combinatorics",), max_n=50)]
    assert ["n=1..10" in d for d in details] == [True, True, False]
    assert "n=1..8" in details[2]
    low = [r.detail for r in vf.run(("combinatorics",), max_n=3)]
    assert all("n=1..3" in d for d in low)


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


def test_verify_all_json_matches_the_cli_golden(capsys):
    # run times vary; every other byte of the report is pinned
    golden = Path(__file__).resolve().parents[1] / "benchmarks/golden/cli.json"
    want = json.loads(golden.read_text())["verify all json"]
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == want["exit"]
    out = re.sub(rb'"seconds": [0-9.eE+-]+', b'"seconds": _',
                 capsys.readouterr().out.encode())
    assert hashlib.sha256(out).hexdigest() == want["stdout_sha256"]


@pytest.mark.parametrize("kind", ["sp", "so-odd"])
def test_round_trips_report_the_decorated_range_they_ran(kind):
    passed, detail = vf._ck_round_trips(kind, 1)
    assert passed
    assert "closed (n<=1)" in detail and "decorated (n<=1)" in detail


def test_radical_invariance_honours_max_n():
    # rank-2 cases need max_n >= 2; only the Sp(2)/F_4 shifts run at 1
    assert vf._ck_sp_radical_invariance(1) == (
        True, "operator and quadratic data unchanged in 34 radical shifts")
    assert vf._ck_sp_radical_invariance(None)[1].endswith(
        "unchanged in 102 radical shifts")


def test_even_suite_at_rank_one_runs_the_plane():
    # O+(2) has no roots: its group is the q - 1 written-down reflections
    assert [(r.name, r.passed, r.detail)
            for r in vf.run_suite("so-even", max_n=1)] == [
        ("theta-transport", True, "bijective, equivariant, "
         "nilpotence-preserving transport on all 2 functionals of o(2, F_2)"),
        ("orbit-counts-agree", True,
         "o(2, F_2) has 1 nilpotent orbits on both sides"),
        ("wedge-form", True,
         "nondegenerate invariant pairing on o(2), 100 random checks")]


def test_orbit_checks_label_each_space_once(monkeypatch):
    for kind, n in [("sp", 1), ("sp", 2), ("so-odd", 1), ("so-odd", 2),
                    ("so-even", 2)]:
        vf.census(kind, n, 1)
    engine, calls = orc._orbit_labels, []

    def counted(images):
        calls.append(len(images))
        return engine(images)

    monkeypatch.setattr(orc, "_orbit_labels", counted)
    for kind in ("sp", "so-odd"):
        calls.clear()
        assert vf._ck_classifier_vs_orbits(kind, None)[0]
        assert len(calls) == 2  # one labelling per rank
    calls.clear()
    assert vf._ck_theta_transport(None)[0]
    assert len(calls) == 1
