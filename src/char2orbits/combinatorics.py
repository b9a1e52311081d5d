"""Partitions, partition pairs, and orbit-label combinatorics.

Orbit labels come in two interchangeable encodings:

  * symbol form: a list of blocks (m_i, l_i), sizes m weakly decreasing,
    levels l weakly decreasing, co-levels m - l weakly decreasing, and
    floor(m_i/2) <= l_i <= m_i (symplectic) resp.
    ceil(m_i/2) <= l_i <= m_i (orthogonal pair blocks);
  * pair form: two partitions (mu, nu) = (l_1..l_s), (m_1-l_1 .. m_s-l_s).

The valid symplectic pairs are exactly {(mu, nu) : |mu|+|nu| = n,
nu_i <= mu_i + 1}; the odd orthogonal labels are pairs (nu, mu) where nu
carries an extra leading slot nu_0 for the chain part and nu_i <= mu_i for
i >= 1.  Over F_q each label fans out into 2^k decorated labels; the fanout
maps below reproduce that splitting purely combinatorially and biject the
union onto all partition pairs of total n.

Partitions are stored as tuples with trailing zeros stripped; zero-padded
forms compare equal everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

Pair = tuple[tuple[int, ...], tuple[int, ...]]


def strip_zeros(parts) -> tuple[int, ...]:
    p = list(parts)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def is_partition(parts) -> bool:
    p = strip_zeros(parts)
    return all(a >= b for a, b in zip(p, p[1:])) and all(a > 0 for a in p)


def partitions(n: int, largest: int | None = None):
    "All partitions of n as weakly decreasing tuples, lexicographically."
    if n == 0:
        yield ()
        return
    if largest is None or largest > n:
        largest = n
    for first in range(largest, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    if n < 0:
        return 0
    return sum(1 for _ in partitions(n))


def p2(n: int) -> int:
    "Number of ordered pairs of partitions with total size n."
    if n < 0:
        return 0
    return sum(partition_count(k) * partition_count(n - k) for k in range(n + 1))


def _pad(parts, length: int) -> list[int]:
    p = list(parts)
    return p + [0] * (length - len(p))


# ----------------------------------------------------------------------
# symplectic labels


def symp_pair_valid(mu, nu) -> bool:
    mu = strip_zeros(mu)
    nu = strip_zeros(nu)
    if not (is_partition(mu) and is_partition(nu)):
        return False
    m = _pad(mu, len(nu))
    return all(nu[i] <= m[i] + 1 for i in range(len(nu)))


def symp_pairs(n: int) -> list[Pair]:
    "All symplectic labels with total size n, sorted."
    out = []
    for a in range(n + 1):
        for mu in partitions(a):
            for nu in partitions(n - a):
                if symp_pair_valid(mu, nu):
                    out.append((mu, nu))
    out.sort()
    return out


def symp_symbol_valid(blocks) -> bool:
    "blocks = ((m_1, l_1), ..., (m_s, l_s))"
    for m, l in blocks:
        if not (m >= 1 and m // 2 <= l <= m):
            return False
    for (m1, l1), (m2, l2) in zip(blocks, blocks[1:]):
        if not (m1 >= m2 and l1 >= l2 and m1 - l1 >= m2 - l2):
            return False
    return True


def symp_symbol_to_pair(blocks) -> Pair:
    assert symp_symbol_valid(blocks), blocks
    mu = strip_zeros([l for _, l in blocks])
    nu = strip_zeros([m - l for m, l in blocks])
    return mu, nu


def symp_pair_to_symbol(pair: Pair) -> tuple[tuple[int, int], ...]:
    mu, nu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = max(len(mu), len(nu))
    m = _pad(mu, s)
    v = _pad(nu, s)
    blocks = tuple((m[i] + v[i], m[i]) for i in range(s))
    assert symp_symbol_valid(blocks), pair
    return blocks


def symp_split_indices(pair: Pair) -> list[int]:
    "0-based positions i with mu_{i+2} + 1 <= nu_{i+1} < mu_{i+1} + 1."
    mu, nu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = max(len(mu), len(nu))
    m = _pad(mu, s + 1)
    v = _pad(nu, s + 1)
    return [i for i in range(s) if m[i + 1] + 1 <= v[i] < m[i] + 1]


def symp_split_k(pair: Pair) -> int:
    return len(symp_split_indices(pair))


def symp_fq_fanout(pair: Pair) -> list[Pair]:
    """The 2^k partition pairs attached to a symplectic label over F_q.

    The label's positions split into runs ending at each splitting index.
    Choice 2 on a run replaces the mu-entries by nu_j - 1 and the nu-entries
    by mu_j + 1; choice 1 keeps the run.  The first output (all choices 1) is
    the label itself and is the only output that is again a valid label.
    """
    if not symp_pair_valid(*pair):
        raise ValueError(f"not a symplectic label: {pair}")
    mu, nu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = max(len(mu), len(nu))
    m = _pad(mu, s)
    v = _pad(nu, s)
    rs = symp_split_indices(pair)
    out = []
    for eps in product((1, 2), repeat=len(rs)):
        mm: list[int] = []
        vv: list[int] = []
        start = 0
        for r, e in zip(rs, eps):
            seg = range(start, r + 1)
            if e == 1:
                mm += [m[j] for j in seg]
                vv += [v[j] for j in seg]
            else:
                mm += [v[j] - 1 for j in seg]
                vv += [m[j] + 1 for j in seg]
            start = r + 1
        mm += m[start:s]
        vv += v[start:s]
        out.append((strip_zeros(mm), strip_zeros(vv)))
    return out


# ----------------------------------------------------------------------
# odd orthogonal labels: nu = (nu_0, nu_1, ..., nu_s), mu = (mu_1, ..., mu_s)


def oodd_pair_valid(nu, mu) -> bool:
    nu = strip_zeros(nu)
    mu = strip_zeros(mu)
    if not (is_partition(nu) and is_partition(mu)):
        return False
    if len(nu) > len(mu) + 1:
        return False
    m = _pad(mu, len(nu))
    return all(nu[i] <= m[i - 1] for i in range(1, len(nu)))


def oodd_pairs(n: int) -> list[Pair]:
    out = []
    for a in range(n + 1):
        for nu in partitions(a):
            for mu in partitions(n - a):
                if oodd_pair_valid(nu, mu):
                    out.append((nu, mu))
    out.sort()
    return out


def oodd_split_indices(pair: Pair) -> list[int]:
    "1-based positions i >= 1 with nu_i < mu_i <= nu_{i-1}."
    nu, mu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = len(mu)
    v = _pad(nu, s + 1)
    return [i for i in range(1, s + 1) if v[i] < mu[i - 1] <= v[i - 1]]


def oodd_split_k(pair: Pair) -> int:
    return len(oodd_split_indices(pair))


def oodd_fq_fanout(pair: Pair) -> list[Pair]:
    """The 2^k partition pairs attached to an odd orthogonal label.

    Runs now start at each splitting index (the head before the first one is
    never touched) and choice 2 swaps the nu-run with the mu-run outright.
    """
    if not oodd_pair_valid(*pair):
        raise ValueError(f"not an odd orthogonal label: {pair}")
    nu, mu = strip_zeros(pair[0]), list(strip_zeros(pair[1]))
    s = len(mu)
    v = _pad(nu, s + 1)
    rs = oodd_split_indices(pair)
    bounds = rs + [s + 1]
    out = []
    for eps in product((1, 2), repeat=len(rs)):
        head = bounds[0]
        vv: list[int] = v[:head]
        mm: list[int] = mu[: head - 1]
        for t, e in enumerate(eps):
            lo, hi = bounds[t], bounds[t + 1]
            vseg = v[lo:hi]
            mseg = mu[lo - 1 : hi - 1]
            if e == 1:
                vv += vseg
                mm += mseg
            else:
                vv += mseg
                mm += vseg
        out.append((strip_zeros(vv), strip_zeros(mm)))
    return out


# ----------------------------------------------------------------------
# text forms


def format_pair(pair: Pair, odd: bool = False) -> str:
    a, b = pair
    if odd:
        nu = list(strip_zeros(a)) or [0]
        mu = list(strip_zeros(b))
        return f"nu={nu}; mu={mu}".replace(" ", "")
    mu = list(strip_zeros(a))
    nu = list(strip_zeros(b))
    return f"nu={nu}; mu={mu}".replace(" ", "")


def format_symp_symbol(blocks) -> str:
    return "".join(f"({m})^2_{l}" for m, l in blocks)
