"""Finite simple graphs: parsing, family generators, products, hop distances.

Vertices are always the dense range 0..n-1; labels, when present, are purely
cosmetic so every matrix stays index-aligned with its graph. All objects are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
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


@dataclass(frozen=True, repr=False)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` holds unordered pairs normalized to (min, max); self-loops and
    out-of-range endpoints are rejected at construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.n:
                raise ValueError("labels length must equal vertex count")
            object.__setattr__(self, "labels", labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbrs)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Read-only n x n bool adjacency matrix: symmetric, False on the diagonal."""
        ends = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * self.edge_count)
        u, v = ends[0::2], ends[1::2]
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        adj.setflags(write=False)
        return adj

    @cached_property
    def distance_matrix(self) -> DistanceMatrix:
        """The hop-count matrix ``apsp(self)``, computed once and shared by every consumer."""
        return apsp(self)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True, eq=False, repr=False)
class DistanceMatrix:
    """Symmetric matrix of shortest-path hop counts; entries are read-only."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def __getitem__(self, key):
        return self.entries[key]

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

    def constant_row_sum(self) -> Fraction | None:
        """The common row sum R when every row agrees, else None."""
        sums = self.row_sums()
        if np.all(sums == sums[0]):
            return Fraction(int(sums[0]))
        return None

    def validate(self, graph: Graph | None = None) -> None:
        """Check every distance-matrix invariant, raising ValueError on failure.

        With ``graph`` given, additionally checks that entry 1 appears exactly
        on the edges of the graph.
        """
        d = self.entries
        n = self.n
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix is not symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("nonzero diagonal entry")
        if n > 1:
            off = d[~np.eye(n, dtype=bool)]
            if off.min() < 1:
                raise ValueError("off-diagonal entry below 1")
        for k in range(n):
            if np.any(d > d[:, [k]] + d[[k], :]):
                raise ValueError("triangle inequality violated")
        if graph is not None:
            ones = {(int(i), int(j)) for i, j in np.argwhere(d == 1) if i < j}
            if ones != set(graph.edges):
                raise ValueError("distance-1 pairs differ from the edge set")


def parse_edge_list(text: str) -> Graph:
    """Parse lines of "u v" vertex pairs into a Graph.

    '#' starts a comment, blank lines are skipped, duplicate edges collapse,
    and the vertex count is 1 + the largest index that appears. An index that
    would make more than MAX_FAMILY_VERTICES vertices raises GraphFormatError
    before anything is built.
    """
    edges: set[tuple[int, int]] = set()
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
        edges.add((min(u, v), top))
        max_index = max(max_index, top)
    if max_index < 0:
        raise GraphFormatError("no edges found in input")
    return Graph(max_index + 1, frozenset(edges))


def _bfs(adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    """True when a single BFS from vertex 0 reaches every vertex."""
    return min(_bfs(g.adjacency, 0)) >= 0


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
    4095^2 < 2^24 and float32 is exact in any summation order.
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
    return DistanceMatrix(d)


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

FAMILY_NAMES = (
    "complete",
    "cycle",
    "path",
    "hypercube",
    "cocktail_party",
    "johnson",
    "demicube",
    "complete_multipartite",
    "knight_board",
    "erdos_renyi",
)

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


def _int_params(spec: FamilySpec, count: int, usage: str) -> list[int]:
    if len(spec.params) != count or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in spec.params
    ):
        raise FamilySpecError(f"family {spec.family!r} expects {usage}, got {spec.params}")
    return [int(p) for p in spec.params]


def _complete(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def _cycle(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def _path(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def _hypercube(n: int) -> Graph:
    size = 1 << n
    edges = {(i, i ^ (1 << b)) for i in range(size) for b in range(n) if i < i ^ (1 << b)}
    labels = tuple(format(i, f"0{n}b") for i in range(size))
    return Graph(size, frozenset(edges), labels)


def _cocktail_party(n: int) -> Graph:
    # 2n vertices; vertex 2i is paired with 2i+1 and adjacent to everyone else
    verts = range(2 * n)
    edges = {(u, v) for u, v in combinations(verts, 2) if not (u // 2 == v // 2)}
    return Graph(2 * n, frozenset(edges))


def _johnson(n: int, k: int) -> Graph:
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    # the neighbours of S swap one member x for one non-member y
    edges = set()
    for i, s in enumerate(subsets):
        outside = [y for y in range(n) if y not in s]
        for x in s:
            rest = [v for v in s if v != x]
            for y in outside:
                j = index[tuple(sorted(rest + [y]))]
                if i < j:
                    edges.add((i, j))
    labels = tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)
    return Graph(len(subsets), frozenset(edges), labels)


def _demicube(n: int) -> Graph:
    verts = [i for i in range(1 << n) if bin(i).count("1") % 2 == 0]
    index = {v: i for i, v in enumerate(verts)}
    # the neighbours of v flip exactly two of its n bits
    flips = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    edges = {(i, index[v ^ f]) for i, v in enumerate(verts) for f in flips if v < v ^ f}
    labels = tuple(format(v, f"0{n}b") for v in verts)
    return Graph(len(verts), frozenset(edges), labels)


def _complete_multipartite(sizes: list[int]) -> Graph:
    part = []
    for p, size in enumerate(sizes):
        part.extend([p] * size)
    n = len(part)
    edges = {(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]}
    return Graph(n, frozenset(edges))


_KNIGHT_MOVES = ((1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1), (-1, -2), (-2, -1))


def _knight_board(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in _KNIGHT_MOVES:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    a, b = vid(r, c), vid(r2, c2)
                    if a < b:
                        edges.add((a, b))
    labels = tuple(f"({r},{c})" for r in range(rows) for c in range(cols))
    return Graph(rows * cols, frozenset(edges), labels)


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
    u, v = np.triu_indices(n, 1)
    for _ in range(1000):
        keep = _random_block(rng, len(u)) < p
        g = Graph(n, frozenset(zip(u[keep].tolist(), v[keep].tolist())))
        if is_connected(g):
            return g
    raise FamilySpecError(f"no connected graph found in 1000 draws (n={n}, p={p})")


# far above every graph size the pipeline handles in reasonable time; the
# generators and the n x n distance matrix are quadratic in memory. Edge lists
# and apsp are held to the same limit, which also keeps apsp's float32
# products exact: (4096 - 1)^2 < 2^24.
MAX_FAMILY_VERTICES = 4096


def _check_vertex_count(spec: FamilySpec, count: int) -> None:
    """Refuse a family member with more than MAX_FAMILY_VERTICES vertices, before building it.

    Callers may pass 2^64 for any count at least that large.
    """
    if count > MAX_FAMILY_VERTICES:
        shown = count if count < 2**64 else "at least 2^64"
        raise FamilySpecError(
            f"{spec} would have {shown} vertices; the limit is {MAX_FAMILY_VERTICES}"
        )


def generate(spec: FamilySpec) -> Graph:
    """Build the named family member; see FAMILY_NAMES for the catalog.

    The vertex count is worked out from the parameters first, and a member
    with more than MAX_FAMILY_VERTICES vertices raises FamilySpecError.
    """
    family = spec.family
    if family == "complete":
        (n,) = _int_params(spec, 1, "n >= 1")
        if n < 1:
            raise FamilySpecError("complete graph needs n >= 1")
        _check_vertex_count(spec, n)
        return _complete(n)
    if family == "cycle":
        (n,) = _int_params(spec, 1, "n >= 3")
        if n < 3:
            raise FamilySpecError("cycle needs n >= 3")
        _check_vertex_count(spec, n)
        return _cycle(n)
    if family == "path":
        (n,) = _int_params(spec, 1, "n >= 1")
        if n < 1:
            raise FamilySpecError("path needs n >= 1")
        _check_vertex_count(spec, n)
        return _path(n)
    if family == "hypercube":
        (n,) = _int_params(spec, 1, "n >= 1")
        if n < 1:
            raise FamilySpecError("hypercube needs n >= 1")
        _check_vertex_count(spec, 2 ** min(n, 64))
        return _hypercube(n)
    if family == "cocktail_party":
        (n,) = _int_params(spec, 1, "n >= 2 (graph has 2n vertices)")
        if n < 2:
            raise FamilySpecError("cocktail_party needs n >= 2")
        _check_vertex_count(spec, 2 * n)
        return _cocktail_party(n)
    if family == "johnson":
        n, k = _int_params(spec, 2, "n, k with 1 <= k <= n-1")
        if not (1 <= k <= n - 1):
            raise FamilySpecError(f"johnson needs 1 <= k <= n-1, got n={n}, k={k}")
        # comb(n, j) >= 2^j for j = min(k, n - k)
        _check_vertex_count(spec, comb(n, k) if min(k, n - k) <= 64 else 2**64)
        return _johnson(n, k)
    if family == "demicube":
        (n,) = _int_params(spec, 1, "n >= 2")
        if n < 2:
            raise FamilySpecError("demicube needs n >= 2")
        _check_vertex_count(spec, 2 ** min(n - 1, 64))
        return _demicube(n)
    if family == "complete_multipartite":
        if len(spec.params) < 2:
            raise FamilySpecError("complete_multipartite needs at least two part sizes")
        sizes = _int_params(spec, len(spec.params), "part sizes >= 1")
        if any(s < 1 for s in sizes):
            raise FamilySpecError("complete_multipartite part sizes must be >= 1")
        _check_vertex_count(spec, sum(sizes))
        return _complete_multipartite(sizes)
    if family == "knight_board":
        rows, cols = _int_params(spec, 2, "rows, cols >= 1")
        if rows < 1 or cols < 1:
            raise FamilySpecError("knight_board needs rows, cols >= 1")
        _check_vertex_count(spec, rows * cols)
        return _knight_board(rows, cols)
    if family == "erdos_renyi":
        if len(spec.params) != 3:
            raise FamilySpecError("erdos_renyi needs n, p, seed")
        n_raw, p_raw, seed_raw = spec.params
        if not isinstance(n_raw, int) or not isinstance(seed_raw, int):
            raise FamilySpecError("erdos_renyi n and seed must be integers")
        p = float(p_raw)
        if not (0.0 <= p <= 1.0):
            raise FamilySpecError(f"erdos_renyi needs 0 <= p <= 1, got {p}")
        if n_raw < 1:
            raise FamilySpecError("erdos_renyi needs n >= 1")
        _check_vertex_count(spec, n_raw)
        if p == 0.0 and n_raw >= 2:
            # no draw has an edge, so resampling could never succeed
            raise FamilySpecError(f"erdos_renyi with p = 0 is never connected for n = {n_raw} >= 2")
        return _erdos_renyi(n_raw, p, seed_raw)
    raise FamilySpecError(f"unknown family {family!r}")  # unreachable


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (a,b) ~ (a',b') iff one coordinate is equal and the other adjacent.

    Vertex (a, b) receives index a * h.n + b, so distances add coordinatewise.
    """
    n = g.n * h.n
    edges = set()
    for a in range(g.n):
        base = a * h.n
        for b1, b2 in h.edges:
            edges.add((base + b1, base + b2))
    for a1, a2 in g.edges:
        for b in range(h.n):
            edges.add((a1 * h.n + b, a2 * h.n + b))
    labels = None
    if g.labels is not None or h.labels is not None:
        gl = g.labels or tuple(str(i) for i in range(g.n))
        hl = h.labels or tuple(str(i) for i in range(h.n))
        labels = tuple(f"({x},{y})" for x in gl for y in hl)
    return Graph(n, frozenset(edges), labels)
