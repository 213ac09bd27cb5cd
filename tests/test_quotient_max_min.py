"""The max-min LP on the coarsest equitable quotient of D against the LP over every vertex.

``compute_curvature`` hands ``lp_max_min`` one value per cell of the coarsest
D-equitable partition, with the cell sizes as multiplicities; its Notes prove
that the leximin point is constant on cells. One cell, which constant row
sums make, takes the constant point with no LP; a partition that fails its
certificate is replaced by a cell per vertex. The reference here is
``lp_max_min`` of the solver's particular point and kernel rows over every
vertex. Both must give the same reduced point ``(nums, den)``, and ``dw``
must be the exact range of ``D nums``.
"""

import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eqcurv import (
    CurvatureStatus,
    Graph,
    cartesian_product,
    compute_curvature,
    curvature,
    generate,
    lp_max_min,
    parse_family_spec,
    solve_exact,
)
from eqcurv.curvature import _cell_numerators, _distance_solve
from eqcurv.linalg import SolveStatus
from integer_form import assert_integer_array, constant_row_sums
from test_equitable_partition import equitable_cells

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# every connected knight board up to 8 x 8 whose system is affine with non-constant row sums
KNIGHT_BOARDS = ["3,4", "3,5", "3,7", "3,8", "4,4", "4,5", "4,6", "4,7", "5,7", "5,8", "6,7", "6,8"]


def fam(text: str) -> Graph:
    return generate(parse_family_spec(text))


def grid(k: int) -> Graph:
    return cartesian_product(fam(f"path:{k}"), fam(f"path:{k}"))


def cycle_with_tail(m: int, tail: int) -> Graph:
    """C_m with a pendant path of ``tail`` vertices attached at vertex 0."""
    path = [(0, m)] + [(v, v + 1) for v in range(m, m + tail - 1)]
    return Graph(m + tail, fam(f"cycle:{m}").edges | set(path))


def reaches_the_lp(g: Graph) -> bool:
    dm = g.distance_matrix
    return _distance_solve(dm).status is SolveStatus.AFFINE and not constant_row_sums(dm)


def assert_matches_the_full_lp(g: Graph) -> None:
    """The route's result against ``lp_max_min`` over every vertex, and ``dw`` against ``D nums``."""
    result = compute_curvature(g)
    assert result.status is CurvatureStatus.EXACT_CANONICAL
    outcome = _distance_solve(g.distance_matrix)
    nums, den = lp_max_min(outcome.particular, outcome.kernel_rows)
    reduced = gcd(den, *nums.tolist())
    assert (result.nums, result.den) == (tuple(v // reduced for v in nums.tolist()), den // reduced)
    product = g.distance_matrix.entries.astype(object) @ np.array(result.nums, dtype=object)
    assert result.dw == (min(product), max(product)) == (g.n * result.den, g.n * result.den)


def connected_atlas_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            yield Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))


def canonical_lp_graphs(seed: int) -> list[Graph]:
    return [workloads.run_graph("canonical_lp", item)["graph"]
            for block in workloads.build_blocks("canonical_lp", seed) for item in block]


@pytest.fixture
def lp_calls(monkeypatch):
    """The number of directions of every call to ``curvature.lp_max_min``, and its multiplicity."""
    calls = []
    real = curvature.lp_max_min

    def spy(particular, nullspace, multiplicity=None):
        calls.append((len(nullspace), multiplicity))
        return real(particular, nullspace, multiplicity)

    monkeypatch.setattr(curvature, "lp_max_min", spy)
    return calls


class TestAgainstTheFullLp:
    def test_every_connected_atlas_graph_that_reaches_the_lp(self):
        graphs = [g for g in connected_atlas_graphs() if reaches_the_lp(g)]
        assert len(graphs) == 202
        for g in graphs:
            assert_matches_the_full_lp(g)

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_the_canonical_lp_blocks(self, seed):
        graphs = canonical_lp_graphs(seed)
        assert len(graphs) == 52 and all(map(reaches_the_lp, graphs))
        for g in graphs:
            assert_matches_the_full_lp(g)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_grids(self, k):
        g = grid(k)
        assert reaches_the_lp(g)
        assert_matches_the_full_lp(g)

    @pytest.mark.parametrize("size", KNIGHT_BOARDS)
    def test_knight_boards(self, size):
        g = fam(f"knight_board:{size}")
        assert reaches_the_lp(g)
        assert_matches_the_full_lp(g)

    @pytest.mark.parametrize("first,second", [
        ("cycle:5", "knight_board:3,4"), ("cycle:7", "knight_board:4,4"), ("path:3", "knight_board:5,8"),
    ])
    def test_products_with_a_knight_board(self, first, second):
        assert_matches_the_full_lp(cartesian_product(fam(first), fam(second)))

    def test_cycle_7_times_knight_board_5_8(self, lp_calls):
        # the full LP takes about 10 s here (kernel 237); the averaged kernel
        # is empty, so the cell-constant solution is unique: it must be the
        # solve of the quotient system B u = n 1 on the test-side cells, D P = P B
        g = cartesian_product(fam("cycle:7"), fam("knight_board:5,8"))
        result = compute_curvature(g)
        assert result.status is CurvatureStatus.EXACT_CANONICAL and lp_calls == []
        assert result.nullspace_dimension == 237
        d = g.distance_matrix.entries
        assert (d.astype(object) @ np.array(result.nums, dtype=object) == g.n * result.den).all()
        cells = equitable_cells(d)
        _, first = np.unique(cells, return_index=True)
        b = (d @ np.eye(cells.max() + 1, dtype=np.int64)[cells])[first]
        quotient = solve_exact(b, [g.n] * len(b))
        assert quotient.status is SolveStatus.UNIQUE
        assert [Fraction(v, result.den) for v in result.nums] == [quotient.solution[c] for c in cells]


class TestCertificate:
    @pytest.mark.parametrize("spec,forge", [
        ("knight_board:5,8", "one cell"), ("knight_board:5,8", "two cells merged"),
        # the row sums split knight_board:5,8 into 8 cells, where refinement finds 12
        ("knight_board:5,8", "row sums"),
        ("cycle:26 + 2", "one cell"), ("cycle:26 + 2", "two cells merged"), ("knight_board:4,4", "one cell"),
    ])
    def test_a_forged_partition_is_refused(self, monkeypatch, lp_calls, spec, forge):
        # every forgery is coarser than the coarsest equitable partition, so
        # D P == P B fails, and the route takes a cell per vertex: one LP call
        # with the whole kernel and unit multiplicities. One cell counts only
        # when the row sums agree, so its forgery does not take the constant point
        g = cycle_with_tail(26, 2) if spec == "cycle:26 + 2" else fam(spec)
        d = g.distance_matrix.entries
        cells = curvature._equitable_cells(d)
        forged = {
            "one cell": np.zeros(g.n, dtype=np.int64),
            "two cells merged": np.minimum(cells, cells.max() - 1),
            "row sums": np.unique(d.sum(axis=1), return_inverse=True)[1].ravel(),
        }[forge]
        assert forged.max() < cells.max()
        monkeypatch.setattr(curvature, "_equitable_cells", lambda d: forged)
        assert_matches_the_full_lp(g)
        [(k, multiplicity)] = lp_calls
        assert k == _distance_solve(g.distance_matrix).nullspace_dimension
        assert multiplicity.tolist() == [1] * g.n

    def test_a_matrix_that_is_not_symmetric_is_refused(self, lp_calls):
        # D + Q - Q^T for a permutation Q that turns three vertices of one cell
        # keeps D P == P B, as Q P = P, but the lemma needs D symmetric: the
        # route takes a cell per vertex, with the family of D handed to it
        g = fam("knight_board:4,4")
        d, outcome = g.distance_matrix.entries, _distance_solve(g.distance_matrix)
        cells = curvature._equitable_cells(d)
        a, b, c = np.flatnonzero(cells == cells[0])[:3]
        q = np.eye(g.n, dtype=np.int64)
        q[[a, b, c]] = q[[b, c, a]]
        skew = d + q - q.T
        assert not np.array_equal(skew, skew.T) and (curvature._equitable_cells(skew) == cells).all()
        nums, den = lp_max_min(outcome.particular, outcome.kernel_rows)
        reduced = gcd(den, *nums.tolist())
        expected = ([v // reduced for v in nums.tolist()], den // reduced, None)
        for matrix in (d, skew):
            got = curvature._max_min_on_cells(matrix, outcome)
            assert (got[0].tolist(), *got[1:]) == expected
        # the knight board's cells leave no direction; the skew matrix's cell per vertex all of them
        [(k, multiplicity)] = lp_calls
        assert (k, multiplicity.tolist()) == (outcome.nullspace_dimension, [1] * g.n)

    def test_a_finer_equitable_partition_gives_the_same_point(self, monkeypatch, lp_calls):
        # the orbits of the transposition (a, b) -> (b, a) of path:5 x path:5
        # are equitable and finer than the coarsest partition, whose cells are
        # the orbits of all eight symmetries of the square
        k = 5
        a, b = np.divmod(np.arange(k * k), k)
        orbits = np.unique(np.minimum(a * k + b, b * k + a), return_inverse=True)[1].ravel()
        monkeypatch.setattr(curvature, "_equitable_cells", lambda d: orbits)
        assert_matches_the_full_lp(grid(k))
        assert [m is not None and len(m) for _, m in lp_calls] == [orbits.max() + 1]


class TestDirectionCounts:
    @pytest.mark.parametrize("size", KNIGHT_BOARDS)
    def test_knight_boards_need_no_lp(self, lp_calls, size):
        assert compute_curvature(fam(f"knight_board:{size}")).status is CurvatureStatus.EXACT_CANONICAL
        assert lp_calls == []

    def test_the_first_canonical_lp_block(self, lp_calls):
        # seed 1, block 0: 113 kernel directions over every vertex, 52 on the cells
        graphs = [workloads.run_graph("canonical_lp", item)["graph"]
                  for item in workloads.build_blocks("canonical_lp", 1)[0]]
        assert sum(_distance_solve(g.distance_matrix).nullspace_dimension for g in graphs) == 113
        assert sum(k for k, _ in lp_calls) == 52
        # the four knight boards make no call
        assert len(lp_calls) == 9

    def test_constant_row_sums_take_the_one_cell_exit(self, monkeypatch, lp_calls):
        # the vertex-transitive graphs of the seed-1 families blocks: one cell,
        # and the point (n * 1, R) as it is, with no LP and no product D nums
        products = []
        monkeypatch.setattr(curvature, "integer_matmul", lambda *args: products.append(1))
        items = [item for block in workloads.build_blocks("families", 1) for item in block]
        graphs = [workloads._reshape(generate(item.spec), item) for item in items]
        constant = [g for g in graphs if constant_row_sums(g.distance_matrix)]
        assert (len(graphs), len(constant)) == (72, 60)
        for g in constant:
            result = compute_curvature(g)
            r = int(g.distance_matrix.row_sums()[0])
            assert result.status is CurvatureStatus.EXACT_CANONICAL
            assert (result.nums, result.den) == ((g.n,) * g.n, r)
            assert set(result.w) == {Fraction(g.n, r)}
            assert result.dw == (g.n * result.den, g.n * result.den)
        assert lp_calls == products == []

    def test_path_15_times_path_15(self, lp_calls):
        g = grid(15)
        assert compute_curvature(g).nullspace_dimension == 196
        assert [k for k, _ in lp_calls] == [28]


class TestCellNumerators:
    def test_the_int64_bound_of_the_lcm_scaling(self):
        # cells of sizes 1 and 2: L = 2 doubles the first column, which takes
        # 2^62 + 1 past int64 and 2^61 + 1 to just below it
        sizes = np.array([1, 2])
        for top, fits in ((2**61 + 1, True), (2**62 + 1, False)):
            grouped = np.array([[top, -top, 3], [1, 2, 3]], dtype=np.int64)
            sums, big = _cell_numerators(grouped, sizes, np.cumsum(sizes) - sizes)
            assert big == 2
            assert sums.tolist() == [[2 * top, 3 - top], [2, 5]]
            assert_integer_array(sums, fits)

    def test_an_lcm_past_int64(self):
        # cell sizes the primes up to 53: L is their product, above 2^63
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        sizes = np.array(primes)
        grouped = np.ones((1, sum(primes)), dtype=np.int64)
        sums, big = _cell_numerators(grouped, sizes, np.cumsum(sizes) - sizes)
        assert big == np.prod(np.array(primes, dtype=object)) > 2**63
        assert sums.tolist() == [[big] * len(primes)]
        assert_integer_array(sums, False)

    @pytest.mark.parametrize("make", [lambda: cycle_with_tail(30, 1), lambda: grid(6)], ids=["C30+1", "path:6^2"])
    def test_the_route_past_int64_gives_the_same_point(self, monkeypatch, make):
        # the point times 2^62 over den times 2^62, and the kernel rows times
        # 2^62: with L >= 2 the averages are Python ints, and the reduced
        # point is the same
        g = make()
        d, outcome = g.distance_matrix.entries, _distance_solve(g.distance_matrix)
        expected = curvature._max_min_on_cells(d, outcome)[:2]
        nums, den = outcome.particular
        scaled = SimpleNamespace(particular=(nums.astype(object) << 62, den << 62),
                                 kernel_rows=outcome.kernel_rows.astype(object) << 62)
        dtypes = []
        real = curvature.lp_max_min

        def spy(particular, nullspace, multiplicity):
            dtypes.append((particular[0].dtype, nullspace.dtype))
            return real(particular, nullspace, multiplicity)

        monkeypatch.setattr(curvature, "lp_max_min", spy)
        point, den, _ = curvature._max_min_on_cells(d, scaled)
        assert dtypes == [(object, object)]
        assert (point.tolist(), den) == (expected[0].tolist(), expected[1])
        assert (tuple(point.tolist()), den) == (compute_curvature(g).nums, compute_curvature(g).den)
