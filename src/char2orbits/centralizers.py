"""Centralizer dimensions, component ranks, and point-count leading terms.

The stabilizer Z of a nilpotent functional under the coadjoint action is
determined up to these invariants by the orbit label alone: its dimension,
the rank of its component group (an elementary abelian 2-group), and the
leading term 2^rank q^dim of its F_q point count.  One report gives them
for a label of any family in combinatorics' FAMILIES, decorations ignored:
the family's dim Z formula and the splitting count of the label's pair.

The pure chain of odd dimension 2m+1 admits exact counts: its stabilizer
has q^m points, and the full isometry group of the chain module has
(q-1) q^{2m}.  Both are cross-checked against brute force in the tests.
"""

from __future__ import annotations

from . import combinatorics as cb


class CentralizerReport(cb._Record):
    __slots__ = ("dim_z", "comp_rank")

    def __init__(self, dim_z: int, comp_rank: int):
        if dim_z < 0 or comp_rank < 0:
            raise ValueError("negative centralizer data")
        super().__init__(dim_z, comp_rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim_z, self.comp_rank) == (other.dim_z, other.comp_rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim_z, self.comp_rank))

    def point_count_leading(self, q: int) -> int:
        "Leading term of |Z(F_q)|; exact up to lower order in q."
        return 2 ** self.comp_rank * q ** self.dim_z

    def component_group(self) -> str:
        return "1" if self.comp_rank == 0 else f"(Z/2)^{self.comp_rank}"


def report(family, label) -> CentralizerReport:
    """The report of a label of the family (a cb.FAMILIES value), decorated
    or closed: the family's dim Z and split count of the label's pair."""
    if not family.valid(label):
        raise ValueError(f"not a {family.kind} label: {label}")
    return pair_report(family, family.pair(label))


def pair_report(family, pair) -> CentralizerReport:
    """The report shared by every label of a pair of the family; the pair
    is not checked, so the caller passes one it has checked."""
    return CentralizerReport(family.dim_z(pair), len(family.free(pair)))


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
