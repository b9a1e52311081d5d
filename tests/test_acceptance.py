"""Acceptance gate: one test per stated criterion.

Run `pytest -v tests/test_acceptance.py`; each test is one criterion and
its PASSED/FAILED line is the verdict.  Every test also prints a
`ACCEPT pass|FAIL ...` detail line (visible with -s, or on failure).

test_criterion_5c_chain_full_automorphisms_as_stated asserts the full
automorphism count (q-1)q^(2m) of the chain module V_(2m+1), d = 2m+1:

  - the commutant of a regular nilpotent J is F_q[J] = F_q[t]/(t^d),
    of dimension d, so it has q^d = q^(2m+1) elements;
  - a_0 + a_1 J + ... + a_(d-1) J^(d-1) is invertible iff a_0 != 0;
  - so the units number (q-1) q^(d-1) = q^(2m+1) - q^(2m).

The figure q^(2m+1), once stated for the automorphism group, is the size
of the commutant algebra and is checked as such.  The claim as first
stated survives only as verify's chain-c-claimed check, which fails.
"""

import time

from char2orbits import centralizers as cz
from char2orbits import combinatorics as cb
from char2orbits import verify as vf


def accept(name, ok, detail):
    print(f"ACCEPT {'pass' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_check(name, fn, max_n=None):
    ok, detail = fn(max_n)
    accept(name, ok, detail)


def test_criterion_1_closed_orbit_counts_and_splitting_sum():
    t0 = time.perf_counter()
    for n in range(1, 11):
        want = cb.p2(n) - cb.p2(n - 2)
        assert len(cb.symp_pairs(n)) == want
        assert len(cb.oodd_pairs(n)) == want
        symp = sum(2 ** cz.symp_report(cb.symp_pair_to_blocks(p)).comp_rank
                   for p in cb.symp_pairs(n))
        oodd = sum(2 ** cz.oodd_report(p).comp_rank for p in cb.oodd_pairs(n))
        assert symp == oodd == cb.p2(n)
    dt = time.perf_counter() - t0
    accept("criterion-1", dt < 1.0,
           f"n=1..10 counts p2(n)-p2(n-2), splitting sums p2(n), both "
           f"families, in {dt:.2f}s (< 1s)")


def test_criterion_2_exhaustive_f2_orbit_counts():
    want = {("sp", 1): 2, ("sp", 2): 5, ("so-odd", 1): 2, ("so-odd", 2): 5}
    worst = 0.0
    for (kind, n), count in want.items():
        t0 = time.perf_counter()
        reports = vf.census(kind, n, 1)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert len(reports) == count, (kind, n, len(reports))
        assert dt < 300.0, (kind, n, dt)
    accept("criterion-2", True,
           f"exhaustive GF(2) scans give 2,5,2,5 orbits; slowest census "
           f"{worst:.1f}s (< 5min)")


def test_criterion_3_closed_classes_split_into_2k_orbits():
    run_check("criterion-3-sp", vf._ck_sp_class_splitting)
    run_check("criterion-3-so-odd", vf._ck_oodd_class_splitting)


def test_criterion_4_classifier_agrees_with_oracle_orbits():
    run_check("criterion-4-sp", vf._ck_sp_classifier_vs_orbits)
    run_check("criterion-4-so-odd", vf._ck_oodd_classifier_vs_orbits)


def test_criterion_5a_stabilizer_growth_rate_is_dimension():
    run_check("criterion-5a", vf._ck_dim_by_field_ratio)


def test_criterion_5b_chain_centralizer_order_exact():
    run_check("criterion-5b", vf._ck_chain_z_exact)


def test_criterion_5c_chain_full_automorphisms_as_stated():
    ok = True
    seen = []
    for m, e in [(1, 1), (1, 2), (2, 1)]:
        q = 2 ** e
        d = 2 * m + 1
        units = vf._commutant_unit_count(d, e)
        basis = vf._commutant_basis(d, e)
        ok = (ok and units == cz.chain_isometry_order(m, q)
              == (q - 1) * q ** (2 * m) == q ** d - q ** (2 * m)
              and len(basis) == d)
        seen.append(f"m={m},q={q}: {units} units, formula "
                    f"{cz.chain_isometry_order(m, q)}, of {q ** len(basis)}")
    accept("criterion-5c", ok,
           "full chain automorphisms counted (q-1)q^(2m) = q^(2m+1) - "
           "q^(2m) of a q^(2m+1)-element commutant [" + "; ".join(seen) + "]")


def test_criterion_6_duality_transport():
    run_check("criterion-6-theta", vf._ck_theta_transport)
    run_check("criterion-6-counts", vf._ck_even_counts_agree)
    run_check("criterion-6-wedge", vf._ck_wedge_form)


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    run_check("criterion-7-sp-round-trips", vf._ck_sp_round_trips)
    run_check("criterion-7-odd-round-trips", vf._ck_oodd_round_trips)
    run_check("criterion-7-chi-sp", vf._ck_sp_chi_pattern)
    run_check("criterion-7-chi-orth", vf._ck_orth_chi_pattern)
    run_check("criterion-7-radical-sp", vf._ck_sp_radical_invariance)
    run_check("criterion-7-radical-odd", vf._ck_odd_split_invariance)
    run_check("criterion-7-series", vf._ck_series_identities)
    dt = time.perf_counter() - t0
    accept("criterion-7", dt < 30.0, f"property suites in {dt:.1f}s (< 30s)")
