"""Acceptance checks for the whole library, grouped into named suites.

Every check returns one pass/fail line: what was compared, over which
range, and where the first mismatch sits if there is one.  The suites are

  combinatorics   label counts, the fanout bijection and the decorated
                  enumerations of both families, pure arithmetic
  sp              symplectic oracle censuses, class splitting, classifier
                  against orbits, normal-form round trips, properties
  so-odd          the same program for the odd orthogonal family
                  (every check both families run is one body taking the
                  kind and reading its family table; the two radical-shift
                  checks draw their shifts from one generator)
  so-even         transport between functionals and matrices, orbit count
                  agreement, the invariant pairing on the algebra
  centralizers    dimension and component formulas against point counts,
                  exact chain counts

Every check caps its rank (the oracle-backed ones at 2); max_n lowers
the caps and never raises them (None keeps every check at its full
documented range).  Censuses shared between checks are memoized.

One check is expected to fail: the claimed exact count q^(2m+1) for the
full automorphism group of the odd chain module.  The counted value is
(q-1) q^(2m) in every case; see chain-c-claimed for the numbers.  The
acceptance tests assert the counted value and keep q^(2m+1) only as the
size of the commutant algebra, so chain-c-claimed is the one place the
claim survives as stated.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import product
from math import log2

import numpy as np

from . import centralizers as cz
from . import classical as cl
from . import combinatorics as cb
from . import form_modules as fm
from . import isometry as iso
from . import linalg as la
from . import odd_split as od
from . import oracle as orc
from .classical import space_for
from .finite_field import field_for


class CheckResult(cb._FrozenRecord):
    __slots__ = ("suite", "name", "passed", "seconds", "detail")

    def __init__(self, suite: str, name: str, passed: bool, seconds: float,
                 detail: str):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "seconds", seconds)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.suite}/{self.name} ({self.seconds:.2f}s) {self.detail}"


_census_memo: dict[tuple[str, int, int], list] = {}


def census(kind: str, n: int, e: int) -> list:
    "Memoized nilpotent orbit census (labels included except for so-even)."
    key = (kind, n, e)
    if key not in _census_memo:
        space = space_for(kind, n, e)
        _census_memo[key] = orc.all_nilpotent_orbits(
            space, classify=kind != "so-even")
    return _census_memo[key]


def _cap(max_n, top: int) -> int:
    "A check's rank bound: its own top, which max_n may lower, never raise."
    return top if max_n is None else max(1, min(max_n, top))


def _oracle_cap(max_n) -> int:
    return _cap(max_n, 2)


# ----------------------------------------------------------------------
# combinatorics suite


def _ck_label_counts(max_n):
    top = _cap(max_n, 10)
    for n in range(1, top + 1):
        want = cb.p2(n) - cb.p2(n - 2)
        for fam in cb.FAMILIES.values():
            if len(fam.pairs(n)) != want:
                return False, (f"{fam.kind} n={n}: {len(fam.pairs(n))} labels, "
                               f"wanted p2({n})-p2({n - 2}) = {want}")
    return True, f"both families have p2(n)-p2(n-2) labels for n=1..{top}"


def _ck_splitting_sum(max_n):
    "Each family's fanouts, over all its closed labels, list every pair once."
    top = _cap(max_n, 10)
    for n in range(1, top + 1):
        every = sorted((x, y) for a in range(n + 1) for x in cb.partitions(a)
                       for y in cb.partitions(n - a))
        for fam in cb.FAMILIES.values():
            images = sorted(image for pair in fam.pairs(n)
                            for image in fam.fanout(pair))
            if images != every:
                return False, (f"{fam.kind} n={n}: the fanouts do not biject "
                               f"onto the p2({n}) = {len(every)} partition pairs")
    return True, f"sum of 2^k over classes equals p2(n) for n=1..{top}, both families"


def _ck_rational_enumerations(max_n):
    top = _cap(max_n, 8)
    for n in range(1, top + 1):
        for fam in cb.FAMILIES.values():
            labels = fam.rational(n)
            if len(labels) != cb.p2(n):
                return False, f"{fam.kind} n={n}: {len(labels)} labels != p2(n)"
            if len(set(labels)) != len(labels):
                return False, f"{fam.kind} n={n}: duplicate decorated labels"
    return True, f"decorated enumerations have p2(n) distinct entries for n=1..{top}"


# ----------------------------------------------------------------------
# checks shared by the symplectic and odd orthogonal suites


def _ck_oracle_counts(kind, max_n):
    cap = _oracle_cap(max_n)
    got = []
    for n in range(1, cap + 1):
        name = cb.FAMILIES[kind].group(n)
        reports = census(kind, n, 1)
        if len(reports) != cb.p2(n):
            return False, f"{name} over F_2: {len(reports)} orbits, wanted p2({n})"
        order = cz.group_order(n, 2)
        for r in reports:
            if r.orbit_size * r.stabilizer_order != order:
                return False, f"{name}: orbit {r.label} fails orbit-stabilizer"
        got.append(f"{name}->{len(reports)}")
    return True, "exhaustive F_2 counts match p2(n): " + ", ".join(got)


def _ck_class_splitting(kind, max_n):
    cap = _oracle_cap(max_n)
    fam = cb.FAMILIES[kind]
    for n in range(1, cap + 1):
        got: dict = {}
        for r in census(kind, n, 1):
            pair = fam.pair(r.label)
            got[pair] = got.get(pair, 0) + 1
        want = {pair: 2 ** len(fam.free(pair)) for pair in fam.pairs(n)}
        if got != want:
            return False, (f"{fam.group(n)}: orbits per partition "
                           f"pair {got}, wanted 2^k {want}")
    return True, f"every closed class splits into exactly 2^k F_2-orbits (n<={cap})"


def _ck_classifier_vs_orbits(kind, max_n):
    cap = _oracle_cap(max_n)
    members = 0
    for n in range(1, cap + 1):
        name = cb.FAMILIES[kind].group(n)
        space = space_for(kind, n)
        group = orc.enumerate_group(space)
        reports = census(kind, n, 1)
        if len({r.label for r in reports}) != len(reports):
            return False, f"{name}: distinct orbits share a label"
        for r in reports:
            orbit = orc.coadjoint_orbit(space, r.representative, group)
            for Y in orbit.values():
                if od.rational_label(space, Y) != r.label:
                    return False, f"{name}: member of {r.label} classifies differently"
            members += len(orbit)
    return True, (f"label equality agrees with orbit equality on all "
                  f"{members} nilpotent functionals (n<={cap})")


def _ck_chi_pattern(kind, max_n):
    "kind is the form-module kind: sp, or orth for the odd complement."
    top = _cap(max_n, 5)
    lowest = 0 if kind == "sp" else 1
    tried = 0
    for m in range(1, top + 1):
        for l in range((m + lowest) // 2, m + 1):
            mod, _ = fm.build_normal_form((cb.BlockLabel(m, l),), field_for(1),
                                          kind=kind)
            for k in range(2 * m + 1):
                if fm.index_chi(mod, k) != max(0, min(k - m + l, l)):
                    return False, f"chi mismatch at {kind} block ({m},{l}), power {k}"
            tried += 1
    blocks = "single blocks" if kind == "sp" else "orth blocks"
    return True, f"chi of {tried} {blocks} follows max(0, min(k-m+l, l))"


# per kind: the top rank that also runs over F_4, and how the witness of a
# label is read back
_ROUND_TRIP = {"sp": (3, "normal forms classify"),
               "so-odd": (2, "witnesses split")}


def _label_back(kind, label, field):
    """The label the kind's classifier reads off the label's witness: an sp
    normal form's module, classified closed for a closed label, or the odd
    split of a so-odd witness."""
    if kind == "so-odd":
        return od.rational_label(*od.odd_witness(label, field))
    mod, _ = fm.build_normal_form(label, field)
    if any(b.eps is None for b in label):
        return fm.classify_closed(mod)
    return fm.classify_fq(mod)


def _ck_round_trips(kind, max_n):
    top = _cap(max_n, 5)
    fam = cb.FAMILIES[kind]
    f4_top, reads = _ROUND_TRIP[kind]
    runs = {"closed": [(fam.closed(pair), e) for n in range(1, top + 1)
                       for pair in fam.pairs(n)
                       for e in ((1, 2) if n <= f4_top else (1,))],
            "decorated": [(label, e) for n in range(1, min(top, 2) + 1)
                          for label in fam.rational(n) for e in (1, 2)]}
    for what, cases in runs.items():
        for label, e in cases:
            if _label_back(kind, label, field_for(e)) != label:
                return False, (f"{what} round trip fails at "
                               f"{fam.format(label)} over GF({2 ** e})")
    return True, (f"{len(runs['closed'])} closed (n<={top}) and "
                  f"{len(runs['decorated'])} decorated (n<=2) {reads} back "
                  f"to their labels")


def _radical_shifts(space, X0, rng, rounds):
    """rounds pairs (X, X + R): X a conjugate of X0 by a random group
    element, R a random sum of trace radical basis matrices."""
    rad = space.trace_radical_basis()
    for _ in range(rounds):
        X = cl.coadjoint(space, cl.random_group_element(space, rng), X0)
        R = la.zeros(space.d, space.d)
        for r in rad:
            if rng.integers(0, 2):
                R = la.add(R, r)
        yield X, la.add(X, R)


def _family_checks(kind, round_trip_name, chi_kind):
    "The five checks both families run, in suite order."
    return (("oracle-counts", partial(_ck_oracle_counts, kind)),
            ("class-splitting", partial(_ck_class_splitting, kind)),
            ("classifier-vs-orbits", partial(_ck_classifier_vs_orbits, kind)),
            (round_trip_name, partial(_ck_round_trips, kind)),
            ("chi-pattern", partial(_ck_chi_pattern, chi_kind)))


# ----------------------------------------------------------------------
# symplectic suite


def _ck_sp_radical_invariance(max_n):
    rng = np.random.default_rng(20260814)
    rounds = 0
    for n, e, blocks in ((2, 1, ((2, 1, "0"),)), (2, 1, ((1, 1, "0"), (1, 1, "0"))),
                         (1, 2, ((1, 1, "0"),))):
        space = space_for("sp", n, e)
        labs = tuple(cb.BlockLabel(*b) for b in blocks)
        _, X0 = fm.build_normal_form(labs, space.field)
        for X, shifted in _radical_shifts(space, X0, rng, 34):
            a, b = fm.build_module(space, X), fm.build_module(space, shifted)
            if not (a.op == b.op and a.quad == b.quad):
                return False, f"module data moved under a radical shift at {labs}"
            rounds += 1
    return True, f"operator and quadratic data unchanged in {rounds} radical shifts"


# ----------------------------------------------------------------------
# odd orthogonal suite


def _ck_series_identities(max_n):
    rng = np.random.default_rng(97)
    rounds = 0
    for kind, blocks in (("sp", ((3, 2), (2, 1))), ("orth", ((3, 2), (1, 1)))):
        labs = tuple(cb.BlockLabel(m, l) for m, l in blocks)
        for e in (1, 2):
            F = field_for(e)
            mod, _ = fm.build_normal_form(labs, F, kind=kind)
            for _ in range(25):
                v = rng.integers(0, F.q, size=mod.dim, dtype=np.uint8).tolist()
                w = rng.integers(0, F.q, size=mod.dim, dtype=np.uint8).tolist()
                if fm.phi_series(mod, v, v) != [0] * (mod.dim + 1):
                    return False, f"self pairing series is nonzero ({kind}, GF({F.q}))"
                # the polarization is the shifted pairing for sp modules
                # and the pairing itself for orth ones
                xi, phi = fm.xi_series(mod, v, w), fm.phi_series(mod, v, w)
                good = xi[:-1] == phi[1:] if kind == "sp" else xi == phi
                if not good:
                    return False, f"polarization series mismatch ({kind}, GF({F.q}))"
                rounds += 1
    return True, f"self series vanish and shifts line up on {rounds} random pairs"


def _ck_odd_split_invariance(max_n):
    rng = np.random.default_rng(41)
    cap = _oracle_cap(max_n)
    space = space_for("so-odd", cap)
    rounds = 0
    for r in census("so-odd", cap, 1):
        for X, shifted in _radical_shifts(space, r.representative, rng, 20):
            if cl.alternating_gram(space, X) != cl.alternating_gram(space, shifted):
                return False, f"alternating form moved under a radical shift at {r.label}"
            s1 = od.split_odd_functional(space, X)
            s2 = od.split_odd_functional(space, shifted)
            if s1.m != s2.m or od.rational_odd_label(s1) != od.rational_odd_label(s2):
                return False, f"split outcome moved under a radical shift at {r.label}"
            rounds += 1
    return True, f"split data unchanged in {rounds} radical shifts on o({2 * cap + 1})"


# ----------------------------------------------------------------------
# even orthogonal suite


def _ck_theta_transport(max_n):
    cap = _oracle_cap(max_n)
    space = space_for("so-even", cap)
    F, q, dim = space.field, space.field.q, space.dim_algebra
    group = orc.enumerate_group(space)
    nil_keys = set()
    for r in census("so-even", cap, 1):
        nil_keys.update(orc.coadjoint_orbit(space, r.representative, group))
    images = set()
    for idx in range(q ** dim):
        X = space.dual_from_values(orc.key_values(space, idx))
        T = cl.module_endomorphism(space, X)
        if not cl.in_algebra(space, T):
            return False, "transport image leaves the algebra"
        images.add(tuple(map(tuple, T)))
        if not space.dual_equal(cl.algebra_to_dual(space, T), X):
            return False, "transport round trip fails"
        if (la.power_ladder(F, T) is not None) != (idx in nil_keys):
            return False, f"nilpotence transport fails at functional {idx}"
    if len(images) != q ** dim:
        return False, "transport is not injective"
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = cl.random_group_element(space, rng)
        idx = int(rng.integers(0, q ** dim))
        X = space.dual_from_values(orc.key_values(space, idx))
        left = cl.module_endomorphism(space, cl.coadjoint(space, g, X))
        right = la.mat_mul(F, la.mat_mul(F, g, cl.module_endomorphism(space, X)),
                           la.inverse(F, g))
        if left != right:
            return False, "transport is not equivariant"
    return True, (f"bijective, equivariant, nilpotence-preserving transport on "
                  f"all {q ** dim} functionals of o({2 * cap}, F_2)")


def _ck_even_counts_agree(max_n):
    cap = _oracle_cap(max_n)
    space = space_for("so-even", cap)
    group = orc.enumerate_group(space)
    co = len(census("so-even", cap, 1))
    ad = orc.adjoint_nilpotent_orbit_count(space, group)
    if co != ad:
        return False, f"o({2 * cap}, F_2): {co} functional vs {ad} matrix orbits"
    return True, f"o({2 * cap}, F_2) has {co} nilpotent orbits on both sides"


def _ck_wedge_form(max_n):
    cap = _oracle_cap(max_n)
    rng = np.random.default_rng(23)
    space = space_for("so-even", cap)
    F = space.field
    G = cl.wedge_invariant_form(space)
    if la.rank(F, G) != space.dim_algebra:
        return False, "wedge pairing is degenerate"
    basis = space.lie_basis()
    for _ in range(100):
        g = cl.random_group_element(space, rng)
        gi = la.inverse(F, g)
        picks = rng.integers(0, 2, size=(2, len(basis))).astype(np.uint8)
        a = la.zeros(space.d, space.d)
        b = la.zeros(space.d, space.d)
        for i, (ca, cbit) in enumerate(zip(picks[0], picks[1])):
            if ca:
                a = la.add(a, basis[i])
            if cbit:
                b = la.add(b, basis[i])
        val = la.dot(F, cl.algebra_coords(space, a),
                     la.mat_vec(F, G, cl.algebra_coords(space, b)))
        ga = la.mat_mul(F, la.mat_mul(F, g, a), gi)
        gb = la.mat_mul(F, la.mat_mul(F, g, b), gi)
        moved = la.dot(F, cl.algebra_coords(space, ga),
                       la.mat_vec(F, G, cl.algebra_coords(space, gb)))
        if val != moved:
            return False, "wedge pairing is not invariant"
    return True, (f"nondegenerate invariant pairing on o({2 * cap}), "
                  f"100 random checks")


# ----------------------------------------------------------------------
# centralizer suite


def _ck_dim_by_field_ratio(max_n):
    rows = 0
    for kind, fam in cb.FAMILIES.items():
        by2 = {r.label: r.stabilizer_order for r in census(kind, 1, 1)}
        by4 = {r.label: r.stabilizer_order for r in census(kind, 1, 2)}
        if set(by2) != set(by4):
            return False, f"{kind}: F_2 and F_4 orbit labels differ"
        for lab, s2 in by2.items():
            dim = cz.report(fam, lab).dim_z
            if round(log2(by4[lab] / s2)) != dim:
                return False, (f"{kind} orbit {lab}: log2 point ratio "
                               f"{log2(by4[lab] / s2):.2f} vs dim {dim}")
            rows += 1
    return True, (f"rounded log2 of |Z(F_4)|/|Z(F_2)| equals dim Z on all "
                  f"{rows} rank-1 orbits")


def _ck_chain_z_exact(max_n):
    cap = _oracle_cap(max_n)
    cases = [(1, 1), (1, 2)] + ([(2, 1), (2, 2)] if cap >= 2 else [])
    for m, e in cases:
        F = field_for(e)
        q = F.q
        space, X = od.odd_witness(cb.OddLabel(m, ()), F)
        G = cl.alternating_gram(space, X)
        quad = [r[i] for i, r in enumerate(space.B)]
        counted = iso.count_space_maps(F, [(space.S, space.S), (G, G)],
                                       quad, quad)
        if counted != cz.chain_z_order(m, q):
            return False, f"chain m={m}, q={q}: counted {counted}, wanted q^m"
    for n, e in [(1, 1), (1, 2)] + ([(2, 1)] if cap >= 2 else []):
        want = cz.chain_z_order(n, 2 ** e)
        got = [r.stabilizer_order for r in census("so-odd", n, e)
               if r.label == cb.OddLabel(n, ())]
        if got != [want]:
            return False, f"census chain stabilizer o({2 * n + 1}, F_{2 ** e}): {got}"
    return True, (f"|Z| = q^m exactly for chains, counted both by isometry "
                  f"search (m<={cases[-1][0]}) and by census stabilizers")


def _commutant_basis(d: int, e: int) -> list:
    "Basis rows of the matrices commuting with the length-d nilpotent chain."
    F = field_for(e)
    J = la.zeros(d, d)
    for i in range(d - 1):
        J[i + 1][i] = 1
    columns = []
    for a in range(d):
        for b in range(d):
            E = la.zeros(d, d)
            E[a][b] = 1
            columns.append(la.flatten(la.add(la.mat_mul(F, E, J),
                                             la.mat_mul(F, J, E))))
    return la.kernel_basis(F, la.transpose(columns))


def _commutant_unit_count(d: int, e: int) -> int:
    "Invertible matrices commuting with the length-d nilpotent chain."
    F = field_for(e)
    K = _commutant_basis(d, e)
    count = 0
    for coeffs in product(range(F.q), repeat=len(K)):
        M = la.zeros(d, d)
        for c, v in zip(coeffs, K):
            if c:
                M = la.add(M, la.reshape(la.scale(F, c, v), d))
        if la.rank(F, M) == d:
            count += 1
    return count


def _ck_chain_c_claimed(max_n):
    cap = _oracle_cap(max_n)
    cases = [(1, 1), (1, 2)] + ([(2, 1)] if cap >= 2 else [])
    ok = True
    seen = []
    for m, e in cases:
        q = 2 ** e
        counted = _commutant_unit_count(2 * m + 1, e)
        if counted != cz.chain_isometry_order(m, q):
            return False, (f"chain m={m}, q={q}: counted {counted} is not "
                           f"even (q-1)q^(2m)")
        ok = ok and counted == q ** (2 * m + 1)
        seen.append(f"m={m},q={q}: {counted} vs claimed {q ** (2 * m + 1)}")
    return ok, ("claimed full automorphism count q^(2m+1); counted "
                "(q-1)q^(2m) [" + "; ".join(seen) + "]")


# ----------------------------------------------------------------------
# runners


SUITES = {
    "combinatorics": (
        ("label-counts", _ck_label_counts),
        ("splitting-sum", _ck_splitting_sum),
        ("rational-enumerations", _ck_rational_enumerations),
    ),
    "sp": _family_checks("sp", "normal-form-round-trips", "sp") + (
        ("radical-invariance", _ck_sp_radical_invariance),
    ),
    "so-odd": _family_checks("so-odd", "round-trips", "orth") + (
        ("series-identities", _ck_series_identities),
        ("split-invariance", _ck_odd_split_invariance),
    ),
    "so-even": (
        ("theta-transport", _ck_theta_transport),
        ("orbit-counts-agree", _ck_even_counts_agree),
        ("wedge-form", _ck_wedge_form),
    ),
    "centralizers": (
        ("dim-by-field-ratio", _ck_dim_by_field_ratio),
        ("chain-z-exact", _ck_chain_z_exact),
        ("chain-c-claimed", _ck_chain_c_claimed),
    ),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(suite: str, max_n: int | None = None) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    out = []
    for name, fn in SUITES[suite]:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(max_n)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(suite, name, passed,
                               time.perf_counter() - t0, detail))
    return out


def run(suites=SUITE_NAMES, max_n: int | None = None) -> list[CheckResult]:
    return [r for s in suites for r in run_suite(s, max_n)]
