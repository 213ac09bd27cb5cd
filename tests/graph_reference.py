"""Per-edge Python graph code: what ``eqcurv.graphs`` ran before it held edges as an array.

Kept as a differential oracle for ``Graph``'s array normalisation, for the
array family generators, for ``cartesian_product`` and for the
label-propagation ``is_connected``. The
module name has no ``test_`` prefix, so pytest does not collect it. It shares
nothing with ``eqcurv.graphs``: every function takes plain integers and
returns a frozenset of ``(u, v)`` tuples with ``u < v``, a tuple of labels,
or a bool.
"""

from collections import deque
from itertools import combinations


def reference_edges(n: int, edges) -> frozenset:
    """The normalised edge set, or the ValueError a bad pair raises, checked pair by pair."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    normalized = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        normalized.add((u, v) if u < v else (v, u))
    return frozenset(normalized)


def reference_adjacency(n: int, edges: frozenset) -> tuple:
    """Sorted neighbour tuples, one per vertex."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(x)) for x in nbrs)


def reference_is_connected(n: int, edges: frozenset) -> bool:
    """True when a single BFS from vertex 0 reaches every vertex."""
    adjacency = reference_adjacency(n, edges)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return all(seen)


def reference_complete(n: int):
    return n, frozenset(combinations(range(n), 2)), None


def reference_cycle(n: int):
    return n, frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)), None


def reference_path(n: int):
    return n, frozenset((i, i + 1) for i in range(n - 1)), None


def reference_knight_board(rows: int, cols: int):
    edges = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1), (-1, -2), (-2, -1)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols and r * cols + c < r2 * cols + c2:
                    edges.add((r * cols + c, r2 * cols + c2))
    labels = tuple(f"({r},{c})" for r in range(rows) for c in range(cols))
    return rows * cols, frozenset(edges), labels


def reference_hypercube(n: int):
    size = 1 << n
    edges = {(i, i ^ (1 << b)) for i in range(size) for b in range(n) if i < i ^ (1 << b)}
    labels = tuple(format(i, f"0{n}b") for i in range(size))
    return size, frozenset(edges), labels


def reference_cocktail_party(n: int):
    # 2n vertices; vertex 2i is paired with 2i+1 and adjacent to everyone else
    edges = {(u, v) for u, v in combinations(range(2 * n), 2) if u // 2 != v // 2}
    return 2 * n, frozenset(edges), None


def reference_johnson(n: int, k: int):
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
    return len(subsets), frozenset(edges), labels


def reference_demicube(n: int):
    verts = [i for i in range(1 << n) if bin(i).count("1") % 2 == 0]
    index = {v: i for i, v in enumerate(verts)}
    # the neighbours of v flip exactly two of its n bits
    flips = [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    edges = {(i, index[v ^ f]) for i, v in enumerate(verts) for f in flips if v < v ^ f}
    labels = tuple(format(v, f"0{n}b") for v in verts)
    return len(verts), frozenset(edges), labels


def reference_complete_multipartite(*sizes: int):
    part = []
    for p, size in enumerate(sizes):
        part.extend([p] * size)
    n = len(part)
    edges = {(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]}
    return n, frozenset(edges), None


def reference_cartesian_product(gn: int, g_edges, g_labels, hn: int, h_edges, h_labels):
    """The box product by nested loops over both edge sets; vertex (a, b) is a * hn + b."""
    edges = set()
    for a in range(gn):
        base = a * hn
        for b1, b2 in h_edges:
            edges.add((base + b1, base + b2))
    for a1, a2 in g_edges:
        for b in range(hn):
            edges.add((a1 * hn + b, a2 * hn + b))
    labels = None
    if g_labels is not None or h_labels is not None:
        gl = g_labels or tuple(str(i) for i in range(gn))
        hl = h_labels or tuple(str(i) for i in range(hn))
        labels = tuple(f"({x},{y})" for x in gl for y in hl)
    return gn * hn, frozenset(edges), labels


REFERENCE_FAMILIES = {
    "complete": reference_complete,
    "cycle": reference_cycle,
    "path": reference_path,
    "knight_board": reference_knight_board,
    "hypercube": reference_hypercube,
    "cocktail_party": reference_cocktail_party,
    "johnson": reference_johnson,
    "demicube": reference_demicube,
    "complete_multipartite": reference_complete_multipartite,
}
