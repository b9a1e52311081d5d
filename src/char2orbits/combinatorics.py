"""Partitions, partition pairs, and orbit-label combinatorics.

Orbit labels have one encoding per level: pairs of partitions, and
below them tuples of BlockLabel blocks (m_i, l_i, eps), sizes m weakly
decreasing, levels l weakly decreasing, co-levels m - l weakly
decreasing, and floor(m_i/2) <= l_i <= m_i (symplectic) resp.
ceil(m_i/2) <= l_i <= m_i (orthogonal pair blocks).  A symplectic block
tuple has the pair (mu, nu) = (l_1..l_s), (m_1-l_1 .. m_s-l_s)
(symp_blocks_to_pair, inverse symp_pair_to_blocks); an OddLabel puts its
chain length in front of nu (OddLabel.pair, inverse pair_to_label).

The valid symplectic pairs are exactly {(mu, nu) : |mu|+|nu| = n,
nu_i <= mu_i + 1}; the odd orthogonal labels are pairs (nu, mu) where nu
carries an extra leading slot nu_0 for the chain part and nu_i <= mu_i for
i >= 1.  Over F_q each label fans out into 2^k decorated labels; the fanout
maps below reproduce that splitting purely combinatorially and biject the
union onto all partition pairs of total n.

Partitions are stored as tuples with trailing zeros stripped; zero-padded
forms compare equal everywhere.

The label types live here too: BlockLabel for one block of a label and
OddLabel for a chain length plus complement blocks, with the decorated
label sets, their text forms and their JSON forms, gathered per kind in
the family table FAMILIES.  This layer is pure Python, so commands that
only read and print labels build no matrix.

The package's small records (these two labels, the centralizer report,
the odd split, the oracle's group and orbit reports, verify's check
results) are plain __slots__ classes on the _Record base below: no
generated code, so a command-line process compiles no inspect or ast
machinery to start.  The records that are compared (the labels and the
centralizer report) spell out their field tuple in == and hash; the rest
compare by identity.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from itertools import compress, product
from operator import ge, le

Pair = tuple[tuple[int, ...], tuple[int, ...]]


def strip_zeros(parts) -> tuple[int, ...]:
    p = tuple(parts)
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return p[:end]


def is_partition(parts) -> bool:
    "Weakly decreasing and positive once trailing zeros are stripped."
    p = strip_zeros(parts)
    return all(map(ge, p, p[1:])) and (not p or p[-1] > 0)


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
    "nu_i <= mu_i + 1 for every i, mu read as zero past its end."
    mu = strip_zeros(mu)
    nu = strip_zeros(nu)
    if not (is_partition(mu) and is_partition(nu)):
        return False
    # past the end of mu, nu is weakly decreasing, so its first part decides
    k = len(mu)
    return (all(map(le, nu, [a + 1 for a in mu]))
            and (len(nu) <= k or nu[k] <= 1))


def _valid_pairs(n: int, valid) -> list[Pair]:
    "The partition pairs of total size n that valid accepts, sorted."
    parts = [list(partitions(a)) for a in range(n + 1)]
    return sorted((x, y) for a in range(n + 1) for x in parts[a]
                  for y in parts[n - a] if valid(x, y))


def symp_pairs(n: int) -> list[Pair]:
    "All symplectic labels with total size n, sorted."
    return _valid_pairs(n, symp_pair_valid)


def symp_split_indices(pair: Pair) -> list[int]:
    "0-based positions i with mu_{i+2} + 1 <= nu_{i+1} < mu_{i+1} + 1."
    mu, nu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = max(len(mu), len(nu))
    m = _pad(mu, s + 1)
    v = _pad(nu, s + 1)
    return [i for i in range(s) if m[i + 1] + 1 <= v[i] < m[i] + 1]


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
    # nu_i <= mu_i for i >= 1, and nu has no part past mu's last slot
    return len(nu) <= len(mu) + 1 and all(map(le, nu[1:], mu))


def oodd_pairs(n: int) -> list[Pair]:
    "All odd orthogonal labels with total size n, sorted."
    return _valid_pairs(n, oodd_pair_valid)


def oodd_split_indices(pair: Pair) -> list[int]:
    "0-based complement block positions i with nu_{i+1} < mu_{i+1} <= nu_i."
    nu, mu = strip_zeros(pair[0]), strip_zeros(pair[1])
    v = _pad(nu, len(mu) + 1)
    return [i for i, m in enumerate(mu) if v[i + 1] < m <= v[i]]


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
    bounds = [i + 1 for i in rs] + [s + 1]
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
    "The text of a pair (mu, nu), or of an odd pair (nu, mu) with its nu_0."
    a, b = (list(strip_zeros(x)) for x in pair)
    nu, mu = (a or [0], b) if odd else (b, a)
    return f"nu={nu}; mu={mu}".replace(" ", "")


def format_symp_symbol(blocks) -> str:
    "The closed text of a block label: decorations dropped, no spaces."
    return "".join(f"({b.m})^2_{b.l}" for b in blocks)


# ----------------------------------------------------------------------
# block labels


class _Record:
    """Slots-only record: repr, pickle and copy read the fields generically.

    Fields are the __slots__ in order; a slot named with a leading
    underscore stays out of the repr.  Records compare by identity unless
    a subclass writes == (and, when frozen, hash) on its own explicit field
    tuple, several times faster than a loop over slots; only the records
    that are compared do.  The label classes write their repr out too.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__
                         if not f.startswith("_"))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class _FrozenRecord(_Record):
    "A record whose fields are set once, in __init__, via object.__setattr__."

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class BlockLabel(_FrozenRecord):
    """One block: chain length m, level l, rational decoration eps.

    eps is None for closed-field labels, "0" or "d" for rational ones.
    validate_blocks checks the ranges of form_modules' standard blocks.
    Labels order by (m, l, eps).
    """

    __slots__ = ("m", "l", "eps")

    def __init__(self, m: int, l: int, eps: str | None = None):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "eps", eps)

    def __repr__(self) -> str:
        # census reports sort by this text, so it is written out, not looped
        return f"BlockLabel(m={self.m!r}, l={self.l!r}, eps={self.eps!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.l, self.eps) == (other.m, other.l, other.eps)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.l, self.eps))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.l, self.eps) < (other.m, other.l, other.eps)
        return NotImplemented


def _block_range_ok(b: BlockLabel, kind: str) -> bool:
    if b.m < 1:
        return False
    if kind == "orth":
        if b.eps == "d" and 2 * b.l <= b.m:
            # At 2l = m the decorated recipe rebuilds the (m, l+1)
            # module, so the boundary level carries no "d" variant.
            return False
        return (b.m + 1) // 2 <= b.l <= b.m
    if b.eps == "d":
        return 2 * b.l >= b.m and b.l < b.m
    return b.m // 2 <= b.l <= b.m


def validate_blocks(blocks, kind: str = "sp") -> bool:
    """Ranges, decoration consistency, and the three monotonicity chains."""
    blocks = tuple(blocks)
    if kind not in ("sp", "orth"):
        raise ValueError(f"kind must be sp or orth, got {kind!r}")
    decorated = [b.eps is not None for b in blocks]
    if any(decorated) and not all(decorated):
        return False
    if not all(b.eps in (None, "0", "d") for b in blocks):
        return False
    if not all(_block_range_ok(b, kind) for b in blocks):
        return False
    return all(a.m >= b.m and a.l >= b.l and a.m - a.l >= b.m - b.l
               for a, b in zip(blocks, blocks[1:]))


def symp_blocks_to_pair(blocks) -> Pair:
    "The partition pair (levels, co-levels) of a block label; eps is ignored."
    return (strip_zeros([b.l for b in blocks]),
            strip_zeros([b.m - b.l for b in blocks]))


def symp_pair_to_blocks(pair: Pair) -> tuple[BlockLabel, ...]:
    "The closed block label of a symplectic pair (mu, nu)."
    if not symp_pair_valid(*pair):
        raise ValueError(f"not a symplectic label: {pair}")
    mu, nu = strip_zeros(pair[0]), strip_zeros(pair[1])
    s = max(len(mu), len(nu))
    return tuple(BlockLabel(l + k, l) for l, k in zip(_pad(mu, s), _pad(nu, s)))


def orth_d_positions(blocks) -> list[int]:
    """The positions of the orthogonal blocks whose level admits a "d"."""
    return [i for i, b in enumerate(blocks)
            if _block_range_ok(BlockLabel(b.m, b.l, "d"), "orth")]


def decorated(closed, ds) -> tuple[BlockLabel, ...]:
    """The blocks of `closed`, "d" at the positions in ds, "0" elsewhere."""
    return tuple(BlockLabel(b.m, b.l, "d" if i in ds else "0")
                 for i, b in enumerate(closed))


def decorations(closed, free):
    """The labels that decorate `closed` with "0" or "d" at each position of
    `free` and "0" everywhere else.

    "0" comes before "d" and the rightmost free position changes fastest;
    orbit tables follow this order, and so does the first match that
    classify_orth_fq returns.
    """
    for choice in product((False, True), repeat=len(free)):
        yield decorated(closed, list(compress(free, choice)))


def _rational(kind: str, n: int) -> list:
    "Each pair's closed label of the family, decorated, pair by pair."
    fam = FAMILIES[kind]
    return [label for pair in fam.pairs(n)
            for label in fam.decorate(fam.closed(pair), fam.free(pair))]


def rational_symbols(n: int) -> list[tuple[BlockLabel, ...]]:
    """Canonical decorated symbols of total size n, 2^k per closed symbol.

    These are exactly the labels classify_fq decides between, so their
    count over all closed symbols is p2(n).
    """
    return _rational("sp", n)


# numbers are ASCII digits only, as format_blocks and format_label write them
_BLOCK_RE = re.compile(r"\(([0-9]+)\)\^2_([0-9]+)(?::([0d]))?")


def format_blocks(blocks) -> str:
    out = []
    for b in blocks:
        tail = f":{b.eps}" if b.eps is not None else ""
        out.append(f"({b.m})^2_{b.l}{tail}")
    return " ".join(out)


def parse_blocks(text: str) -> tuple[BlockLabel, ...]:
    out = []
    for tok in text.split():
        m = _BLOCK_RE.fullmatch(tok)
        if not m:
            raise ValueError(f"bad block token {tok!r}")
        out.append(BlockLabel(int(m.group(1)), int(m.group(2)), m.group(3)))
    return tuple(out)


def blocks_to_json(blocks) -> dict:
    return {"blocks": [{"m": b.m, "l": b.l, "eps": b.eps} for b in blocks]}


# ----------------------------------------------------------------------
# odd orthogonal labels: chain length plus complement blocks


class OddLabel(_FrozenRecord):
    """Chain length plus the complement's block label."""

    __slots__ = ("m", "blocks")

    def __init__(self, m: int, blocks: tuple[BlockLabel, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", blocks)

    def __repr__(self) -> str:
        return f"OddLabel(m={self.m!r}, blocks={self.blocks!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.blocks) == (other.m, other.blocks)
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.blocks))

    def pair(self):
        nu = strip_zeros((self.m,) + tuple(b.m - b.l for b in self.blocks))
        mu = strip_zeros(tuple(b.l for b in self.blocks))
        return nu, mu

    def eps(self):
        return tuple(b.eps for b in self.blocks)

    def closed(self) -> "OddLabel":
        return OddLabel(self.m, tuple(BlockLabel(b.m, b.l) for b in self.blocks))


def pair_to_label(pair) -> OddLabel:
    """Closed label, all decorations "0", with the given pair's shape.

    The first entry of nu is the chain length; the remaining entries pair
    with mu as complement block co-levels and levels.
    """
    nu, mu = pair
    if not oodd_pair_valid(nu, mu):
        raise ValueError(f"not an odd orthogonal label: {pair}")
    nu, mu = strip_zeros(nu), strip_zeros(mu)
    m = nu[0] if nu else 0
    co = list(nu[1:]) + [0] * (len(mu) - len(nu) + 1)
    blocks = tuple(BlockLabel(k + l, l, "0") for k, l in zip(co, mu))
    return OddLabel(m, blocks)


def rational_labels(n: int) -> list[OddLabel]:
    "Canonical decorated labels of total size n, 2^k per admissible pair."
    return _rational("so-odd", n)


def format_label(label: OddLabel) -> str:
    "Text form m=<chain>; <blocks>, with - for an empty complement."
    blocks = format_blocks(label.blocks) if label.blocks else "-"
    return f"m={label.m}; {blocks}"


def parse_label(text: str) -> OddLabel:
    "Inverse of format_label."
    head, _, rest = text.partition(";")
    head = re.fullmatch(r"m=([0-9]+)", head.strip())
    if not head:
        raise ValueError(f"bad odd label {text!r}")
    rest = rest.strip()
    blocks = () if rest in ("", "-") else parse_blocks(rest)
    return OddLabel(int(head.group(1)), blocks)


def label_to_json(label: OddLabel) -> dict:
    nu, mu = label.pair()
    return {"m": label.m,
            "pair": {"nu": list(nu), "mu": list(mu)},
            "eps": [b.eps for b in label.blocks]}


# ----------------------------------------------------------------------
# the family table


def _weighted(parts, a: int) -> int:
    "The sum of (4i + a) p_i over the parts p_1, p_2, ..."
    return sum((4 * i + a) * p for i, p in enumerate(parts, 1))


class Family(_FrozenRecord):
    """One label family: pairs(n); fanout, closed (the closed label),
    dim_z, pair_text and free (the pair's k splitting positions, 0-based
    blocks) take a pair; pair, blocks, format, closed_text, to_json and
    valid take a label; decorate(closed, free) gives the 2^k rational
    labels of a closed label, given its pair's free positions, in
    decorations order; parse(text) and rational(n) make labels; group(n)
    names the group.  The fields hold functions, not methods:
    benchmarks/tracing.py names a method's span <layer>.<method>, so twin
    methods would share a name."""

    __slots__ = ("kind", "group", "pairs", "fanout", "closed",
                 "dim_z", "pair_text", "pair", "blocks", "free", "format",
                 "closed_text", "to_json", "valid", "decorate", "parse",
                 "rational")

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])


# dim Z: sum (4i - 3) mu_i + (4i - 1) nu_i, i.e. sum (4i - 1) m_i - 2 l_i on
# sp blocks; nu_0 + sum (4i + 1) nu_i + (4i - 1) mu_i for odd pairs (nu, mu)
FAMILIES = {f.kind: f for f in (
    Family(kind="sp", group=lambda n: f"sp({2 * n})",
           pairs=symp_pairs, fanout=symp_fq_fanout, closed=symp_pair_to_blocks,
           dim_z=lambda p: _weighted(p[0], -3) + _weighted(p[1], -1),
           pair_text=format_pair, pair=symp_blocks_to_pair,
           blocks=lambda label: label, free=symp_split_indices,
           format=format_blocks, closed_text=format_symp_symbol,
           to_json=blocks_to_json,
           valid=lambda label: validate_blocks(label, kind="sp"),
           decorate=lambda closed, free: list(decorations(closed, free)),
           parse=parse_blocks, rational=rational_symbols),
    Family(kind="so-odd", group=lambda n: f"o({2 * n + 1})",
           pairs=oodd_pairs, fanout=oodd_fq_fanout, closed=pair_to_label,
           dim_z=lambda p: (sum(p[0][:1]) + _weighted(p[0][1:], 1)
                            + _weighted(p[1], -1)),
           pair_text=lambda p: format_pair(p, odd=True), pair=OddLabel.pair,
           blocks=lambda label: label.blocks, free=oodd_split_indices,
           format=format_label,
           closed_text=lambda label: format_label(label.closed()),
           to_json=label_to_json,
           valid=lambda label: (oodd_pair_valid(*label.pair())
                                and validate_blocks(label.blocks, kind="orth")),
           decorate=lambda closed, free: [
               OddLabel(closed.m, blocks)
               for blocks in decorations(closed.blocks, free)],
           parse=parse_label, rational=rational_labels))}
