import math

import pytest

from torusmetrics.farey import (
    MAX_ENUM_DEPTH,
    SLOPE_ROOTS,
    FareyNode,
    Slope,
    add_slopes,
    direction,
    enumerate_slopes,
    intersection_number,
    mediant,
    mediant_state,
    path_state,
    root_cells,
    root_nodes,
    slope_parents,
    split,
)
from torusmetrics.supratio import _tier_slope

from _oracles import cone_directions, lattice_intersection_count, swept_states


class TestSlope:
    def test_canonical_forms_accepted(self):
        for p, q in [(0, 1), (1, 0), (1, 1), (-3, 2), (5, 7)]:
            s = Slope(p, q)
            assert (s.p, s.q) == (p, q)

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            Slope(-1, 0)
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_of_normalizes(self):
        assert Slope.of(2, 4) == Slope(1, 2)
        assert Slope.of(-2, -4) == Slope(1, 2)
        assert Slope.of(2, -4) == Slope(-1, 2)
        assert Slope.of(-3, 0) == Slope(1, 0)
        with pytest.raises(ValueError):
            Slope.of(0, 0)

    def test_parse_round_trip(self):
        for text in ["0/1", "1/0", "-3/2", "5/7"]:
            assert str(Slope.parse(text)) == text
        with pytest.raises(ValueError):
            Slope.parse("3")

    def test_mirrored_fixes_axes(self):
        assert Slope(1, 0).mirrored() == Slope(1, 0)
        assert Slope(0, 1).mirrored() == Slope(0, 1)
        assert Slope(2, 3).mirrored() == Slope(-2, 3)


class TestDirection:
    def test_slopes_up_to_2_500_keep_their_floats(self):
        big = 2**500 - 1
        for p, q in [(0, 1), (1, 0), (-3, 2), (big, 1), (-big, big - 2), (3**315, 2**499)]:
            assert direction(p, q) == (float(p), float(q))
            s = Slope.of(p, q)
            assert s.direction() == (float(s.p), float(s.q))

    @pytest.mark.parametrize("p, q", [
        (2**500, 1), (-(3**330), 7), (2**600 + 1, 2**599 - 1), (5**2000, 3), (1, 7**500),
    ])
    def test_deeper_slopes_scale_by_a_power_of_two(self, p, q):
        u0, u1 = direction(p, q)
        assert 2.0**499 <= max(abs(u0), abs(u1)) < 2.0**500
        k = max(abs(p), abs(q)).bit_length() - 500
        # each entry is the correctly rounded p / 2^k, also past the float range
        assert u0 == p / 2**k and u1 == q / 2**k
        if max(abs(p), abs(q)) < 2**1000:
            assert (u0, u1) == (math.ldexp(float(p), -k), math.ldexp(float(q), -k))

    def test_cone_directions_scale_each_side(self):
        n = 2**600
        u, v = cone_directions(Slope(n, 1), Slope(1, 0), Slope(n - 1, 1))
        assert u == direction(n, 1) == (2.0**499, 2.0**-101) and v == (1.0, 0.0)
        # the mirrored cell below 1/0, whose right side points along (-1, 0)
        u, v = cone_directions(Slope(-n, 1), Slope(1, 0), Slope(1 - n, 1))
        assert u == (-(2.0**499), 2.0**-101) and v == (-1.0, 0.0)


class TestMediant:
    def test_root_mediant(self):
        assert mediant(Slope(0, 1), Slope(1, 0)) == Slope(1, 1)

    def test_right_descent(self):
        assert mediant(Slope(1, 1), Slope(1, 0)) == Slope(2, 1)

    def test_interior_mediant(self):
        m = mediant(Slope(1, 2), Slope(1, 1))
        assert m == Slope(2, 3)
        assert math.gcd(m.p, m.q) == 1
        assert abs(Slope(1, 2).p * m.q - Slope(1, 2).q * m.p) == 1
        assert abs(m.p * Slope(1, 1).q - m.q * Slope(1, 1).p) == 1

    def test_negative_side(self):
        assert mediant(Slope(-1, 1), Slope(0, 1)) == Slope(-1, 2)

    def test_rejects_non_neighbors(self):
        with pytest.raises(ValueError):
            mediant(Slope(1, 2), Slope(2, 1))


class TestIntersectionNumber:
    def test_dual_curves(self):
        assert intersection_number(Slope(1, 0), Slope(0, 1)) == 1

    def test_self_intersection(self):
        assert intersection_number(Slope(1, 0), Slope(1, 0)) == 0

    def test_crossing_count(self):
        assert intersection_number(Slope(2, 1), Slope(1, 2)) == 3

    @pytest.mark.parametrize(
        "a,b",
        [
            (Slope(2, 1), Slope(1, 2)),
            (Slope(1, 0), Slope(0, 1)),
            (Slope(3, 2), Slope(1, 1)),
            (Slope(-2, 3), Slope(1, 2)),
            (Slope(5, 3), Slope(-1, 4)),
        ],
    )
    def test_against_lattice_crossings(self, a, b):
        assert intersection_number(a, b) == lattice_intersection_count(a, b)

    def test_symmetric_and_neighbor_characterization(self):
        slopes = enumerate_slopes(5)
        for a in slopes[::3]:
            for b in slopes[::4]:
                assert intersection_number(a, b) == intersection_number(b, a)
        # neighbors are exactly the pairs meeting once
        for node in _walk_nodes(5):
            left, right = node.endpoint_slopes()
            assert intersection_number(left, right) == 1


def _walk_nodes(depth, *start):
    """The nodes below start (default both roots) down to depth, depth first."""
    frontier = list(start or root_nodes())
    while frontier:
        node = frontier.pop()
        if node.depth > depth:
            continue
        yield node
        frontier.extend(node.children())


class TestEnumerate:
    def test_depth_zero_roots_only(self):
        assert set(enumerate_slopes(0)) == {Slope(0, 1), Slope(1, 0), Slope(1, 1)}

    def test_depth_one(self):
        added = set(enumerate_slopes(1)) - set(enumerate_slopes(0))
        assert Slope(1, 2) in added and Slope(2, 1) in added
        assert added == {Slope(1, 2), Slope(2, 1), Slope(-1, 1)}

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 6])
    def test_counts_double_per_depth(self, depth):
        assert len(enumerate_slopes(depth)) == 3 * 2 ** depth

    def test_nested_and_duplicate_free(self):
        prev = set()
        for depth in range(7):
            slopes = enumerate_slopes(depth)
            assert len(slopes) == len(set(slopes))
            assert prev <= set(slopes)
            prev = set(slopes)

    def test_all_canonical_and_primitive(self):
        for s in enumerate_slopes(8):
            assert s.q > 0 or (s.p, s.q) == (1, 0)
            assert math.gcd(abs(s.p), s.q) == 1

    def test_order_matches_node_breadth_first_walk(self):
        # callers sample from the list, so its order is part of the contract
        pos, neg = root_nodes()
        expected = [Slope(0, 1), Slope(1, 0), pos.mediant_slope()]
        tier = [*pos.children(), neg]
        while tier[0].depth <= 12:
            expected += [node.mediant_slope() for node in tier]
            tier = [child for node in tier for child in node.children()]
        for depth in range(13):
            assert enumerate_slopes(depth) == expected[:3 * 2 ** depth], depth

    def test_rejects_bad_depths(self):
        with pytest.raises(ValueError):
            enumerate_slopes(-1)
        with pytest.raises(ValueError):
            enumerate_slopes(MAX_ENUM_DEPTH + 1)


class TestFareyNode:
    def test_rejects_non_neighbor_endpoints(self):
        with pytest.raises(ValueError):
            FareyNode(Slope(1, 2), Slope(2, 1), 0)

    def test_neighbor_determinant_exact_to_depth_12(self):
        for node in _walk_nodes(12):
            det = node.left.p * node.right.q - node.left.q * node.right.p
            assert abs(det) == 1

    def test_children_depth_and_nesting(self):
        pos, neg = root_nodes()
        l, r = pos.children()
        assert l.depth == r.depth == 1
        assert l.left == pos.left and l.right == pos.mediant_slope()
        assert r.left == pos.mediant_slope() and r.right == pos.right
        assert neg.mirrored and neg.mediant_slope() == Slope(-1, 1)

    def test_cone_directions_span_every_slope_inside_the_cell(self):
        # the oracles' flat-torus cone bound is sound only if every slope below
        # a cell is a positive integer combination of its endpoint directions
        for cell, node in _cells_and_nodes(8):
            (ux, uy), (vx, vy) = cone_directions(*cell[5:])
            det = ux * vy - uy * vx
            assert abs(det) == 1.0
            for inner in _walk_nodes(10, node):
                s = inner.mediant_slope()
                mu, nu = (s.p * vy - s.q * vx) / det, (ux * s.q - uy * s.p) / det
                assert mu >= 1 and nu >= 1, (cell, s)
                assert (mu * ux + nu * vx, mu * uy + nu * vy) == (s.p, s.q)

    def test_endpoint_slopes_mirrors(self):
        _, neg = root_nodes()
        child = neg.children()[0]
        left, right = child.endpoint_slopes()
        assert left == Slope(0, 1)
        assert right == Slope(-1, 1)


class TestSlopeParents:
    def test_roots_have_no_parents(self):
        for s in (Slope(0, 1), Slope(1, 0)):
            with pytest.raises(ValueError):
                slope_parents(s)

    def test_base_triangle(self):
        a, b, c = slope_parents(Slope(1, 1))
        assert {a, b} == {Slope(1, 0), Slope(0, 1)}
        assert c == Slope(-1, 1)

    def test_parent_relations_hold_everywhere(self):
        for s in enumerate_slopes(8):
            if s in (Slope(0, 1), Slope(1, 0)):
                continue
            a, b, c = slope_parents(s)
            assert intersection_number(a, b) == 1
            assert intersection_number(s, a) == 1
            assert intersection_number(s, b) == 1
            # s and c are the two completions of the edge (a, b)
            completions = {Slope.of(a.p + b.p, a.q + b.q), Slope.of(a.p - b.p, a.q - b.q)}
            assert {s, c} == completions
            assert c != s

    def test_positive_wedge_parents_are_mediant_parents(self):
        for s in enumerate_slopes(8):
            if s.p <= 0 or s.q == 0:
                continue
            a, b, c = slope_parents(s)
            assert mediant(a, b) == s

    def test_the_parent_farther_from_0_1_comes_first(self):
        # a is the right endpoint of the cell whose mediant is s and b its
        # left one, at +-n/1 too: the one operand order of every sweep
        for s in enumerate_slopes(8):
            if s in (Slope(0, 1), Slope(1, 0)):
                continue
            a, b, _ = slope_parents(s)
            assert abs(a.p) * b.q > abs(b.p) * a.q, s


def _cells_and_nodes(depth):
    """Each split cell down to depth, carrying slope states, with its reference node."""
    pos, neg = root_cells(SLOPE_ROOTS)
    pos_node, neg_node = root_nodes()
    cells, nodes = [*split(pos, SLOPE_ROOTS[2]), neg], [*pos_node.children(), neg_node]
    while nodes[0].depth <= depth:
        yield from zip(cells, nodes)
        cells = [child for cell in cells for child in split(cell, mediant_state(cell, add_slopes))]
        nodes = [child for node in nodes for child in node.children()]


def _other_completion(a, b, c):
    """The completion of the Farey edge (a, b) that is not c."""
    plus, minus = Slope.of(a.p + b.p, a.q + b.q), Slope.of(a.p - b.p, a.q - b.q)
    assert c in (plus, minus)
    return minus if c == plus else plus


class TestCarriedState:
    ROOTS = (Slope(0, 1), Slope(1, 0), Slope(1, 1))

    @staticmethod
    def combine(a, b, c):
        # the state at each slope is the slope itself, so every call can be
        # checked against slope_parents, operand order included
        s = _other_completion(a, b, c)
        assert slope_parents(s) == (a, b, c)
        return s

    def test_sweep_carries_slope_parents_in_order(self):
        seen, _ = swept_states(self.ROOTS, self.combine, 9)
        # breadth-first order, except that the sweep takes -1/1 with the roots
        expected = enumerate_slopes(9)
        expected.remove(Slope(-1, 1))
        expected.insert(3, Slope(-1, 1))
        assert seen == expected
        # each tier is its 2**d positive cells, then from depth 2 its mirrored ones
        i = 4
        for depth in range(1, 10):
            n = 2 ** depth + (2 ** (depth - 1) if depth > 1 else 0)
            assert seen[i:i + n] == [_tier_slope(depth, j) for j in range(n)]
            i += n
        assert i == len(seen)

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5, 6, 13, 14, 20])
    def test_sweep_budget_cuts_positive_block_first(self, budget):
        # max_evals leaves budget evaluations after the root tier
        full, _ = swept_states(self.ROOTS, self.combine, 4)
        seen, result = swept_states(self.ROOTS, self.combine, 4, max_evals=4 + budget)
        assert seen == full[:4 + budget]
        assert result.evals == 4 + budget and result.hit_eval_cap

    def test_path_state_reaches_deep_and_mirrored_slopes(self):
        slopes = [*enumerate_slopes(6), Slope(1, 40), Slope(-40, 1), Slope(-987, 610),
                  Slope(355, 113)]
        for s in slopes:
            assert path_state(s, self.ROOTS, self.combine) == s

    def test_unchecked_nodes_equal_checked_nodes(self):
        # split builds its cells without checks; they must be the checked
        # nodes, and their slope states the nodes' endpoints and opposite vertex
        count = 0
        for cell, node in _cells_and_nodes(7):
            sign = -1 if node.mirrored else 1
            assert cell[:5] == (sign * node.left.p, node.left.q, sign * node.right.p,
                                node.right.q, node.depth)
            assert cell[5:] == (*node.endpoint_slopes(), node.opposite_slope())
            count += 1
        assert count == 3 * 2 ** 7 - 3
