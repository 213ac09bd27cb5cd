"""Finite simple graphs: parsing, family generators, products, hop distances.

Vertices are always the dense range 0..n-1; labels, when present, are purely
cosmetic so every matrix stays index-aligned with its graph. All objects are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Sized
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

__all__ = [
    "Graph",
    "DistanceMatrix",
    "FamilySpec",
    "GraphFormatError",
    "FamilySpecError",
    "DisconnectedGraphError",
    "FAMILY_NAMES",
    "MAX_FAMILY_VERTICES",
    "parse_edge_list",
    "parse_family_spec",
    "check_family_params",
    "generate",
    "cartesian_product",
    "is_connected",
    "apsp",
]


class GraphFormatError(ValueError):
    """Edge-list text that cannot be parsed into a graph."""


class FamilySpecError(ValueError):
    """Unknown family name or parameters outside the family's valid range."""


class DisconnectedGraphError(ValueError):
    """An operation that needs a connected graph received a disconnected one."""


def _first_bad_pair(n: int, edges) -> ValueError:
    """The error for the first pair of ``edges``, in input order, that is no edge on 0..n-1.

    Only the error path walks the pairs in Python, so an endpoint past int64
    gets the same out-of-range error as any other, an endpoint that is not an
    integer (``1.5``, which ``int`` would truncate) is named, and a pair that
    is not a pair fails to unpack.
    """
    for u, v in edges:
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            return ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
    return ValueError("each edge must be a pair of vertex indices")


def _canonical_pairs(n: int, edges) -> np.ndarray:
    """``edges`` as rows ``(u, v)`` with ``u < v``: distinct, sorted, a read-only int64 array.

    An ``(m, 2)`` integer array is read as it is, any other iterable of pairs
    with one ``np.fromiter`` over ``operator.index`` of each endpoint, which
    refuses a float where an int64 conversion would truncate it; duplicates go
    with one sort of ``u * n + v``.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        ends = edges.astype(np.int64, copy=False).reshape(-1)
    else:
        if not isinstance(edges, Sized):
            edges = tuple(edges)
        items = chain.from_iterable(edges)
        try:
            ends = np.fromiter(map(operator.index, items), np.int64, 2 * len(edges))
        except (OverflowError, TypeError, ValueError):
            raise _first_bad_pair(n, edges) from None
        if next(items, None) is not None:
            raise _first_bad_pair(n, edges)
    a, b = ends[0::2], ends[1::2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if len(lo) and (lo.min() < 0 or hi.max() >= n or np.count_nonzero(lo == hi)):
        raise _first_bad_pair(n, edges)
    if n * n > 2**63:  # lo * n + hi would overflow int64
        pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    else:
        key = lo * n + hi
        key.sort()
        fresh = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        pairs = np.empty((len(key), 2), dtype=np.int64)
        np.divmod(key, n, out=(pairs[:, 0], pairs[:, 1]))
    pairs.setflags(write=False)
    return pairs


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``pairs`` holds the edges as a read-only (m, 2) int64 array of distinct
    rows ``(u, v)`` with ``u < v``, in sorted order; ``edges`` is the same set
    as a frozenset of tuples, built on first access. Self-loops and
    out-of-range endpoints are rejected at construction.
    """

    def __init__(self, n: int, edges, labels=None) -> None:
        n = operator.index(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = _canonical_pairs(n, edges)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.labels) == (other.n, other.labels) and np.array_equal(
            self.pairs, other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pairs.tobytes(), self.labels))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The pairs as a frozenset of ``(u, v)`` tuples of Python ints, ``u < v``."""
        u, v = self.pairs.T
        return frozenset(zip(u.tolist(), v.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Read-only n x n bool adjacency matrix: symmetric, False on the diagonal."""
        u, v = self.pairs.T
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        adj.setflags(write=False)
        return adj

    @cached_property
    def distance_matrix(self) -> DistanceMatrix:
        """The hop-count matrix ``apsp(self)``, computed once and shared by every consumer."""
        return apsp(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _int64_entries(values) -> np.ndarray:
    """``values`` as an int64 array, ValueError unless every entry is a finite integer within int64.

    A float entry must equal its int64 conversion, after a range check that
    NaN fails too; a non-numeric array's entries go through ``operator.index``.
    """
    raw = np.asarray(values)
    bad = ValueError("distance matrix entries must be finite integers within int64")
    if raw.dtype.kind == "f":
        if raw.size and not (-(2.0**63) <= raw.min() and raw.max() < 2.0**63):
            raise bad
        arr = raw.astype(np.int64)
        if not np.array_equal(arr, raw):
            raise bad
        return arr
    if raw.dtype.kind in "bi" or (raw.dtype.kind == "u" and int(raw.max(initial=0)) < 2**63):
        return raw.astype(np.int64)
    try:
        return np.array(np.frompyfunc(operator.index, 1, 1)(raw), dtype=np.int64)
    except (TypeError, OverflowError):
        raise bad from None


@dataclass(frozen=True, eq=False, repr=False)
class DistanceMatrix:
    """Symmetric matrix of shortest-path hop counts; entries are read-only int64.

    Any integer or float array converts when every entry is a finite integer
    within int64; any other entry, such as 1.5, NaN, 1e19 or ``2**63``,
    raises ValueError where a bare int64 conversion would truncate or wrap it.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _int64_entries(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistanceMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"

    def diameter(self) -> int:
        return int(self.entries.max())

    def average_distance(self) -> Fraction:
        """Exact mean of all n^2 entries, zero diagonal included."""
        return Fraction(int(self.entries.sum()), self.n * self.n)

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def constant_row_sum(self) -> int | None:
        """The common row sum R when every row agrees, else None."""
        sums = self.row_sums()
        if np.all(sums == sums[0]):
            return int(sums[0])
        return None


def parse_edge_list(text: str) -> Graph:
    """Parse lines of "u v" vertex pairs into a Graph.

    '#' starts a comment, blank lines are skipped, duplicate edges collapse,
    and the vertex count is 1 + the largest index that appears. An index that
    would make more than MAX_FAMILY_VERTICES vertices raises GraphFormatError
    before anything is built.
    """
    edges: list[tuple[int, int]] = []
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: vertex indices must be integers, got {raw!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u} {v} is not allowed")
        top = max(u, v)
        if top >= MAX_FAMILY_VERTICES:
            raise GraphFormatError(
                f"line {lineno}: vertex {top} would make {top + 1} vertices; "
                f"the limit is {MAX_FAMILY_VERTICES}"
            )
        edges.append((u, v))
        max_index = max(max_index, top)
    if max_index < 0:
        raise GraphFormatError("no edges found in input")
    return Graph(max_index + 1, edges)


def is_connected(g: Graph) -> bool:
    """True when every vertex is in the component of vertex 0.

    Label propagation with pointer jumping over ``g.pairs`` (Shiloach and
    Vishkin 1982): each root hooks onto the smallest root across its edges,
    then every label jumps to its root, until no edge joins two labels. Each
    round at least halves the roots of every component, so there are
    O(log n) rounds of vectorised work.
    """
    label = np.arange(g.n)
    u, v = g.pairs.T
    while True:
        lu, lv = label[u], label[v]
        if (lu == lv).all():
            return not label.any()
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


def apsp(g: Graph) -> DistanceMatrix:
    """All-pairs shortest-path hop counts by Seidel's algorithm (Seidel 1995).

    Squaring: ``A_{k+1} = (A_k @ A_k > 0) | A_k`` with the diagonal cleared,
    from the adjacency matrix ``A_0`` until ``A_L`` is complete; a step that
    adds no pair to an incomplete matrix means the graph is disconnected.
    Unwinding: ``D = 2 A_L - A_{L-1}``, then for k = L-2 down to 0,
    ``D = 2 D - (D @ A_k < D * deg_k)`` with ``deg_k`` the column sums of
    ``A_k``. L is about log2(diameter), so the cost is O(n^3 log diam) BLAS
    work, against O(n (n + m)) interpreted steps for one BFS per source.

    The products run in float32. Every product entry is an integer in
    [0, (n-1)^2], and graphs above MAX_FAMILY_VERTICES are refused with
    ValueError before anything is allocated, so every entry stays below
    4095^2 < 2^24 and float32 is exact in any summation order; the
    distances are then converted to int64 exactly.
    """
    n = g.n
    if n > MAX_FAMILY_VERTICES:
        raise ValueError(f"graph has {n} vertices; the limit is {MAX_FAMILY_VERTICES}")
    levels = [g.adjacency_matrix]
    pairs = 2 * g.edge_count
    while pairs < n * (n - 1):
        a = levels[-1].astype(np.float32)
        closure = (a @ a > 0) | levels[-1]
        np.fill_diagonal(closure, False)
        grown = int(np.count_nonzero(closure))
        if grown == pairs:
            raise DisconnectedGraphError("graph is disconnected; some distances are infinite")
        levels.append(closure)
        pairs = grown
    d = levels[-1].astype(np.float32)
    if len(levels) > 1:
        d = 2 * d - levels[-2]
        for adj in reversed(levels[:-2]):
            a = adj.astype(np.float32)
            below = d @ a < d * a.sum(axis=0)
            d *= 2
            d -= below
    return DistanceMatrix(d.astype(np.int64))


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

_ALIASES = {
    "knight": "knight_board",
    "cp": "cocktail_party",
    "multipartite": "complete_multipartite",
    "er": "erdos_renyi",
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters (integers; p is a float for erdos_renyi)."""

    family: str
    params: tuple[int | float, ...]

    def __post_init__(self) -> None:
        family = _ALIASES.get(self.family, self.family)
        if family not in FAMILY_NAMES:
            raise FamilySpecError(
                f"unknown family {self.family!r}; known families: {', '.join(FAMILY_NAMES)}"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", tuple(self.params))

    def __str__(self) -> str:
        return self.family + ":" + ",".join(str(p) for p in self.params)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI spec strings like "johnson:4,2" or "erdos_renyi:20,0.3,7"."""
    name, sep, argstr = text.partition(":")
    name = name.strip().lower()
    params: list[int | float] = []
    if sep:
        for token in argstr.split(","):
            token = token.strip()
            if not token:
                raise FamilySpecError(f"empty parameter in spec {text!r}")
            try:
                params.append(int(token))
            except ValueError:
                try:
                    params.append(float(token))
                except ValueError:
                    raise FamilySpecError(
                        f"parameter {token!r} in spec {text!r} is not a number"
                    ) from None
    return FamilySpec(name, tuple(params))


def _cycle(n: int) -> Graph:
    i = np.arange(n)
    return Graph(n, np.stack([i, (i + 1) % n], axis=1))


def _path(n: int) -> Graph:
    i = np.arange(n - 1)
    return Graph(n, np.stack([i, i + 1], axis=1))


def _flip_pairs(verts: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, with ``verts[j] == verts[i] ^ f`` for a flip ``f``.

    ``verts`` is increasing and closed under every flip.
    """
    index = np.zeros(int(verts[-1]) + 1, dtype=np.int64)
    index[verts] = np.arange(len(verts))
    other = verts[:, None] ^ flips[None, :]
    i, f = np.nonzero(verts[:, None] < other)
    return np.stack([i, index[other[i, f]]], axis=1)


def _hypercube(n: int) -> Graph:
    size = 1 << n
    # the neighbours of i flip one of its n bits
    pairs = _flip_pairs(np.arange(size), 1 << np.arange(n))
    labels = tuple(format(i, f"0{n}b") for i in range(size))
    return Graph(size, pairs, labels)


def _johnson(n: int, k: int) -> Graph:
    subsets = list(combinations(range(n), k))
    # S ~ T when they share k - 1 members: one product of the membership matrix
    member = np.zeros((len(subsets), n), dtype=np.float32)
    member[np.repeat(np.arange(len(subsets)), k), np.ravel(subsets)] = 1
    pairs = np.argwhere(np.triu(member @ member.T == k - 1))
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)
    return Graph(len(subsets), pairs, labels)


def _demicube(n: int) -> Graph:
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    verts = np.flatnonzero(bits.sum(axis=1) % 2 == 0)
    # the neighbours of v flip exactly two of its n bits
    flips = np.array([(1 << a) | (1 << b) for a, b in combinations(range(n), 2)])
    labels = tuple(format(v, f"0{n}b") for v in verts.tolist())
    return Graph(len(verts), _flip_pairs(verts, flips), labels)


def _multipartite(sizes: list[int]) -> Graph:
    part = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.triu_indices(len(part), 1)
    keep = part[u] != part[v]
    return Graph(len(part), np.stack([u[keep], v[keep]], axis=1))


_KNIGHT_MOVES = np.array([(1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1), (-1, -2), (-2, -1)])


def _knight_board(rows: int, cols: int) -> Graph:
    # square r * cols + c; every move from every square that stays on the board,
    # so each edge comes once from either end
    r, c = np.divmod(np.arange(rows * cols), cols)
    r2, c2 = r[:, None] + _KNIGHT_MOVES[:, 0], c[:, None] + _KNIGHT_MOVES[:, 1]
    square, move = np.nonzero((0 <= r2) & (r2 < rows) & (0 <= c2) & (c2 < cols))
    pairs = np.stack([square, r2[square, move] * cols + c2[square, move]], axis=1)
    labels = tuple(f"({r},{c})" for r in range(rows) for c in range(cols))
    return Graph(rows * cols, pairs, labels)


def _random_block(rng: random.Random, m: int) -> np.ndarray:
    """The next ``m`` values of ``rng.random()`` as one float64 array, bit for bit.

    CPython's ``random()`` (``genrand_res53``) takes two 32-bit Mersenne
    Twister outputs ``a``, ``b`` and returns ``(a >> 5) * 2^26 + (b >> 6)``
    over ``2^53``. ``getrandbits(64 m)`` consumes the same ``2 m`` outputs in
    the same order and places the first in the least significant 32 bits, so
    the little-endian 32-bit words of its bytes are those outputs in order.
    Every step below is exact in float64 (the numerator is below ``2^53`` and
    the divisor a power of two), so the floats are identical, and ``rng`` is
    left in the state that ``m`` calls of ``random()`` leave it in.
    """
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def _erdos_renyi(n: int, p: float, seed: int) -> Graph:
    # resample until connected; all draws come from one seeded stream so the
    # result is a deterministic function of (n, p, seed). The upper triangle
    # in row-major order is combinations(range(n), 2), one draw per pair.
    rng = random.Random(seed)
    # the pairs i < j in row-major order, as np.triu_indices(n, 1) gives them at a third of its cost
    u, v = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    for _ in range(1000):
        keep = _random_block(rng, len(u)) < p
        g = Graph(n, np.stack([u[keep], v[keep]], axis=1))
        if is_connected(g):
            return g
    raise FamilySpecError(f"no connected graph found in 1000 draws (n={n}, p={p})")


# far above every graph size the pipeline handles in reasonable time; the
# generators and the n x n distance matrix are quadratic in memory. Edge lists
# and apsp are held to the same limit, which also keeps apsp's float32
# products exact: (4096 - 1)^2 < 2^24.
MAX_FAMILY_VERTICES = 4096


# The catalog, the one place that knows the families, in the order of FAMILY_NAMES:
# name -> (usage, parameter count or None for any, range predicate, vertex count,
# builder). The last three take the parameters unpacked; a vertex count may be
# 2^64 for any count at least that large.
_FAMILIES = {
    "complete": ("n >= 1", 1, lambda n: n >= 1, lambda n: n, lambda n: _multipartite([1] * n)),
    "cycle": ("n >= 3", 1, lambda n: n >= 3, lambda n: n, _cycle),
    "path": ("n >= 1", 1, lambda n: n >= 1, lambda n: n, _path),
    "hypercube": ("n >= 1", 1, lambda n: n >= 1, lambda n: 2 ** min(n, 64), _hypercube),
    # vertex 2i is paired with 2i+1 and adjacent to everyone else
    "cocktail_party": (
        "n >= 2 (graph has 2n vertices)", 1, lambda n: n >= 2, lambda n: 2 * n,
        lambda n: _multipartite([2] * n),
    ),
    # comb(n, j) >= 2^j for j = min(k, n - k)
    "johnson": (
        "n, k with 1 <= k <= n-1", 2, lambda n, k: 1 <= k <= n - 1,
        lambda n, k: comb(n, k) if min(k, n - k) <= 64 else 2**64, _johnson,
    ),
    "demicube": ("n >= 2", 1, lambda n: n >= 2, lambda n: 2 ** min(n - 1, 64), _demicube),
    "complete_multipartite": (
        "two or more part sizes >= 1", None, lambda *sizes: len(sizes) >= 2 and min(sizes) >= 1,
        lambda *sizes: sum(sizes), lambda *sizes: _multipartite(sizes),
    ),
    "knight_board": ("rows, cols >= 1", 2, lambda r, c: min(r, c) > 0, operator.mul, _knight_board),
    "erdos_renyi": (
        "n, p, seed with n >= 1 and 0 <= p <= 1", 3, lambda n, p, seed: n >= 1 and 0 <= p <= 1,
        lambda n, p, seed: n, _erdos_renyi,
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def check_family_params(spec: FamilySpec) -> None:
    """Refuse parameters of the wrong count, of the wrong type or out of range.

    Parameters are ints, bool refused, but erdos_renyi's p may be a float.
    """
    usage, arity, valid, _vertices, _build = _FAMILIES[spec.family]
    params = spec.params
    p_index = 1 if spec.family == "erdos_renyi" else None
    typed = all(
        not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and i == p_index))
        for i, x in enumerate(params)
    )
    if arity not in (None, len(params)) or not typed or not valid(*params):
        raise FamilySpecError(f"family {spec.family!r} expects {usage}, got {params}")


def generate(spec: FamilySpec) -> Graph:
    """Build the named family member; see FAMILY_NAMES for the catalog.

    After ``check_family_params`` the vertex count is worked out from the
    parameters, and a member with more than MAX_FAMILY_VERTICES vertices
    raises FamilySpecError before anything is built.
    """
    check_family_params(spec)
    *_, vertices, build = _FAMILIES[spec.family]
    count = vertices(*spec.params)
    if count > MAX_FAMILY_VERTICES:
        shown = count if count < 2**64 else "at least 2^64"
        raise FamilySpecError(
            f"{spec} would have {shown} vertices; the limit is {MAX_FAMILY_VERTICES}"
        )
    if spec.family == "erdos_renyi" and spec.params[1] == 0 and count >= 2:
        # no draw has an edge, so resampling could never succeed
        raise FamilySpecError(f"erdos_renyi with p = 0 is never connected for n = {count} >= 2")
    return build(*spec.params)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (a,b) ~ (a',b') iff one coordinate is equal and the other adjacent.

    Vertex (a, b) receives index a * h.n + b, so distances add coordinatewise.
    """
    # a copy of h's edges for every vertex a of g, then a copy of g's for every b
    fibres = h.pairs + (np.arange(g.n) * h.n)[:, None, None]
    layers = g.pairs[:, None, :] * h.n + np.arange(h.n)[:, None]
    labels = None
    if g.labels is not None or h.labels is not None:
        gl = g.labels or tuple(str(i) for i in range(g.n))
        hl = h.labels or tuple(str(i) for i in range(h.n))
        labels = tuple(f"({x},{y})" for x in gl for y in hl)
    pairs = np.concatenate([fibres.reshape(-1, 2), layers.reshape(-1, 2)])
    return Graph(g.n * h.n, pairs, labels)
