"""Centralizer dimensions, component ranks, and point-count leading terms.

The stabilizer Z of a nilpotent functional under the coadjoint action is
determined up to these invariants by the orbit label alone: its dimension,
the rank of its component group (an elementary abelian 2-group), and the
leading term 2^rank q^dim of its F_q point count.  Labels enter in symbol
form for the symplectic case and in pair form (nu with its leading chain
entry, mu) for the odd orthogonal case.

The pure chain of odd dimension 2m+1 admits exact counts: its stabilizer
has q^m points, and the full isometry group of the chain module has
(q-1) q^{2m}.  Both are cross-checked against brute force in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import combinatorics as cb


def _symbol_pairs(blocks) -> list[tuple[int, int]]:
    return [(b.m, b.l) if isinstance(b, cb.BlockLabel) else (int(b[0]), int(b[1]))
            for b in blocks]


@dataclass(frozen=True)
class CentralizerReport:
    dim_z: int
    comp_rank: int

    def __post_init__(self):
        if self.dim_z < 0 or self.comp_rank < 0:
            raise ValueError("negative centralizer data")

    def point_count_leading(self, q: int) -> int:
        "Leading term of |Z(F_q)|; exact up to lower order in q."
        return 2 ** self.comp_rank * q ** self.dim_z

    def component_group(self) -> str:
        return "1" if self.comp_rank == 0 else f"(Z/2)^{self.comp_rank}"


# ----------------------------------------------------------------------
# symplectic formulas


def dim_z_symp(blocks) -> int:
    "Sum of (4i - 1) m_i - 2 l_i over the symbol, i starting at 1."
    pairs = _symbol_pairs(blocks)
    if not cb.symp_symbol_valid(pairs):
        raise ValueError(f"not a symplectic symbol: {pairs}")
    return sum((4 * i - 1) * m - 2 * l for i, (m, l) in enumerate(pairs, 1))


def comp_rank_symp(blocks) -> int:
    "Number of splitting positions of the symbol's partition pair."
    pairs = _symbol_pairs(blocks)
    if not cb.symp_symbol_valid(pairs):
        raise ValueError(f"not a symplectic symbol: {pairs}")
    return cb.symp_split_k(cb.symp_symbol_to_pair(pairs))


def symp_report(blocks) -> CentralizerReport:
    return CentralizerReport(dim_z_symp(blocks), comp_rank_symp(blocks))


# ----------------------------------------------------------------------
# odd orthogonal formulas


def dim_z_oodd(pair) -> int:
    "nu_0 plus sum of nu_i (4i + 1) plus sum of mu_i (4i - 1), i from 1."
    nu, mu = pair
    if not cb.oodd_pair_valid(nu, mu):
        raise ValueError(f"not an odd orthogonal label: {pair}")
    nu, mu = cb.strip_zeros(nu), cb.strip_zeros(mu)
    head = nu[0] if nu else 0
    return (head
            + sum((4 * i + 1) * v for i, v in enumerate(nu[1:], 1))
            + sum((4 * i - 1) * v for i, v in enumerate(mu, 1)))


def comp_rank_oodd(pair) -> int:
    "Positions i >= 1 with nu_i < mu_i <= nu_{i-1}."
    if not cb.oodd_pair_valid(*pair):
        raise ValueError(f"not an odd orthogonal label: {pair}")
    return cb.oodd_split_k(pair)


def oodd_report(pair) -> CentralizerReport:
    return CentralizerReport(dim_z_oodd(pair), comp_rank_oodd(pair))


# ----------------------------------------------------------------------
# ambient group data and exact chain counts


def algebra_dim(n: int) -> int:
    "Dimension n(2n+1), shared by sp(2n) and the odd orthogonal group."
    return n * (2 * n + 1)


def group_order(n: int, q: int) -> int:
    "Order of Sp(2n, F_q), equal to the odd orthogonal order here."
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def even_group_order(n: int, q: int) -> int:
    "Order of the split orthogonal group O+(2n, F_q)."
    out = 2 * q ** (n * (n - 1)) * (q ** n - 1)
    for i in range(1, n):
        out *= q ** (2 * i) - 1
    return out


def chain_z_order(m: int, q: int) -> int:
    "Exact stabilizer count q^m for the pure chain of dimension 2m+1."
    return q ** m


def chain_isometry_order(m: int, q: int) -> int:
    """Exact automorphism count of the length 2m+1 chain module.

    Maps commuting with a single nilpotent chain operator are the
    polynomials in it; the invertible ones have a unit constant term and
    2m free higher coefficients, giving (q-1) q^{2m}.
    """
    return (q - 1) * q ** (2 * m)
