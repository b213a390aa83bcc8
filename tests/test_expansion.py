"""Tests for tree enumeration, grafting, and component dimensions.

Dimension claims are checked against independent oracles: the closed-form
Catalan count for tree enumeration and dendriform components, the linear
sequence for diassociative components, sympy's rank for the ideal spans
that feed the frozen weight-4 values, and a reference construction of the
ideal by one-step grafting from the weight below.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quadops.expansion as expansion
from quadops.catalog import BUILTIN_NAMES, builtin
from quadops.dsl import parse_relation
from quadops.expansion import (
    TreeMonomial,
    _context_layouts,
    _ideal_echelon,
    _ideal_generators,
    _ideal_rank,
    _normal_count,
    _normal_edges,
    binary_ops_dimension,
    catalan,
    component_dim,
    enumerate_trees,
    format_monomial,
    ideal_span,
    weight_basis,
    weight_component,
    weight_work,
)
from quadops.linalg import Subspace, echelon_subspace, insert_rows, span, span_rows
from quadops.presentations import (
    GeneratorSet,
    Presentation,
    dual,
    quotient,
    relation_vector,
)

# trees are nested tuples: None is a leaf, (left, right) a binary vertex
LEAF = None
NODE = (LEAF, LEAF)


def leaf_count(t) -> int:
    return 1 if t is None else leaf_count(t[0]) + leaf_count(t[1])


def closed_form_catalan(n: int) -> int:
    """Independent oracle: C_n = (2n)! / (n! (n+1)!)."""
    import math

    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


class TestTrees:
    def test_tree_counts_match_catalan(self):
        for n in range(1, 8):
            trees = enumerate_trees(n)
            assert len(trees) == catalan(n - 1) == closed_form_catalan(n - 1)
            assert len(set(trees)) == len(trees)
            assert all(leaf_count(t) == n for t in trees)

    def test_single_leaf(self):
        assert enumerate_trees(1) == (LEAF,)

    def test_left_comb_comes_first_at_three_leaves(self):
        left_comb, right_comb = enumerate_trees(3)
        assert left_comb == (NODE, LEAF)
        assert right_comb == (LEAF, NODE)

    def test_four_leaf_order_by_left_subtree_size(self):
        trees = enumerate_trees(4)
        left_sizes = [leaf_count(t[0]) for t in trees]
        assert left_sizes == [3, 3, 2, 1, 1]

    def test_zero_leaves_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)

    def test_tree_shape_validation(self):
        with pytest.raises(ValueError):
            TreeMonomial((LEAF,), ())
        with pytest.raises(ValueError):
            TreeMonomial((LEAF, LEAF, LEAF), (0, 0))
        with pytest.raises(ValueError):
            TreeMonomial((NODE, (LEAF,)), (0, 0))


class TestWeightBasis:
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_basis_sizes(self, k):
        for n in range(1, 7):
            expected = catalan(n - 1) * k ** (n - 1)
            assert len(weight_basis(k, n)) == expected

    def test_basis_order_golden(self):
        basis = weight_basis(2, 3)
        left_comb = (NODE, LEAF)
        right_comb = (LEAF, NODE)
        assert basis == (
            TreeMonomial(left_comb, (0, 0)),
            TreeMonomial(left_comb, (0, 1)),
            TreeMonomial(left_comb, (1, 0)),
            TreeMonomial(left_comb, (1, 1)),
            TreeMonomial(right_comb, (0, 0)),
            TreeMonomial(right_comb, (0, 1)),
            TreeMonomial(right_comb, (1, 0)),
            TreeMonomial(right_comb, (1, 1)),
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            weight_basis(0, 3)

    def test_monomials_equal_checked_ones(self):
        # the basis skips the constructor's checks; a direct construction
        # still makes them
        for k, n in ((1, 6), (2, 5), (3, 4)):
            basis = weight_basis(k, n)
            assert basis == tuple(TreeMonomial(m.shape, m.labels) for m in basis)
        with pytest.raises(ValueError, match="^a tree is None"):
            TreeMonomial((NODE, (LEAF,)), (0, 0))
        with pytest.raises(ValueError, match="^one label per internal node$"):
            TreeMonomial((NODE, LEAF), (0,))


@st.composite
def small_presentations(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    ambient = 2 * k * k
    nvecs = draw(st.integers(min_value=0, max_value=3))
    vecs = [
        [
            Fraction(draw(st.integers(min_value=-2, max_value=2)))
            for _ in range(ambient)
        ]
        for _ in range(nvecs)
    ]
    return Presentation(GeneratorSet(tuple("ab"[:k])), span(vecs, ambient))


class TestIdealAndDims:
    def test_ideal_starts_at_weight_three(self):
        with pytest.raises(ValueError):
            ideal_span(builtin("As"), 2)

    @given(small_presentations())
    @settings(deadline=None, max_examples=30)
    def test_weight_three_ideal_has_relation_dimension(self, p):
        assert ideal_span(p, 3).dimension == p.relations.dimension

    @given(small_presentations())
    @settings(deadline=None, max_examples=30)
    def test_weight_three_component_formula(self, p):
        k = p.num_ops
        expected = 2 * k * k - p.relations.dimension
        assert component_dim(p, 3) == expected

    def test_component_weights_one_and_two(self):
        for name, k in (("As", 1), ("Dend", 2), ("Xplus", 4)):
            p = builtin(name)
            assert component_dim(p, 1) == 1
            assert component_dim(p, 2) == k

    def test_component_weight_zero_rejected(self):
        with pytest.raises(ValueError):
            component_dim(builtin("As"), 0)

    def test_one_operation_components_all_one(self):
        p = builtin("As")
        for n in range(1, 7):
            assert component_dim(p, n) == 1

    def test_half_product_dims_are_catalan(self):
        p = builtin("Dend")
        for n in range(1, 9):
            assert component_dim(p, n) == closed_form_catalan(n)
        assert [component_dim(p, n) for n in (6, 7, 8)] == [132, 429, 1430]

    def test_bar_product_dims_are_linear(self):
        p = builtin("Dias")
        for n in range(1, 9):
            assert component_dim(p, n) == n

    def test_sixteen_relation_pair_weight_three(self):
        assert component_dim(builtin("Xplus"), 3) == 16
        assert component_dim(builtin("Xminus"), 3) == 16

    def test_sixteen_relation_pair_weight_four_frozen(self):
        # computed outputs, frozen; cross-checked below against sympy rank
        assert component_dim(builtin("Xplus"), 4) == 58
        assert component_dim(builtin("Xminus"), 4) == 56

    def test_sixteen_relation_pair_weight_five_frozen(self):
        # computed outputs, frozen; the grafting construction of the ideal
        # gave the same two values
        assert component_dim(builtin("Xplus"), 5) == 211
        assert component_dim(builtin("Xminus"), 5) == 210

    @pytest.mark.parametrize("name,dim4", (("Xplus", 58), ("Xminus", 56)))
    def test_weight_four_ideal_rank_against_sympy(self, name, dim4):
        p = builtin(name)
        ideal = ideal_span(p, 4)
        rows = [list(r) for r in ideal.rational_rows()]
        assert sympy.Matrix(rows).rank() == ideal.dimension == 320 - dim4

    def test_dend_weight_four_ideal_rank_against_sympy(self):
        ideal = ideal_span(builtin("Dend"), 4)
        rows = [list(r) for r in ideal.rational_rows()]
        assert sympy.Matrix(rows).rank() == ideal.dimension == 40 - 14

    def test_adding_relations_never_raises_dims(self):
        p = builtin("Dend")
        extra = relation_vector(2, [(1, 0, 0)], [(1, 1, 1)])
        q = quotient(p, [extra])
        for n in (3, 4):
            assert component_dim(q, n) <= component_dim(p, n)

    def test_binary_ops_dimensions(self):
        expected = {
            "As": 2,
            "Dend": 4,
            "Dias": 4,
            "DendSquareDias": 8,
            "Xplus": 8,
            "Xminus": 8,
        }
        for name, value in expected.items():
            assert binary_ops_dimension(builtin(name)) == value


class TestRankMemo:
    def test_memo_is_bounded(self):
        maxsize = _ideal_rank.cache_info().maxsize
        assert maxsize is not None
        _ideal_rank.cache_clear()
        # distinct one-operation presentations: the lines through (1, b)
        for b in range(maxsize + 8):
            p = Presentation(GeneratorSet(("a",)), span([[1, b]], 2))
            component_dim(p, 3)
        info = _ideal_rank.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 8, maxsize)

    def test_names_are_not_part_of_the_key(self):
        p = builtin("Dend")
        q = Presentation(GeneratorSet(("a", "b")), p.relations)
        _ideal_rank.cache_clear()
        assert component_dim(p, 4) == component_dim(q, 4) == 14
        info = _ideal_rank.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_rank_is_the_echelon_size(self, name):
        p = builtin(name)
        for n in (3, 4, 5):
            _ideal_rank.cache_clear()
            _normal_edges.cache_clear()
            size = catalan(n - 1) * p.num_ops ** (n - 1)
            assert component_dim(p, n) == size - len(_ideal_echelon(p.relations, n))
            # weight 5 asks the Gröbner search, which asks the rank at
            # weight 4; only a space without a quadratic basis then asks
            # the rank at weight 5 too
            counted = n == 5 and name in QUADRATIC_BASIS
            assert _ideal_rank.cache_info().misses == (1 if n < 5 or counted else 2)


def seeded_relations(rng: random.Random) -> Subspace:
    """A relation space on one to four operations, from rows of one to
    four small entries, of any dimension from 0 to 2k^2."""
    k = rng.randint(1, 4)
    ambient = 2 * k * k
    rows = [
        {rng.randrange(ambient): rng.choice((1, -1, 2, -3)) for _ in range(rng.randint(1, 4))}
        for _ in range(rng.randint(0, ambient))
    ]
    return span_rows(rows, ambient)


class TestWeightThreeRank:
    """At weight 3 the rank is dim R, read off without eliminating; the
    memo is bypassed so the shortcut itself is compared."""

    def test_builtins_duals_and_seeded_spaces(self):
        rng = random.Random(2103)
        spaces = [p.relations for name in BUILTIN_NAMES for p in (builtin(name), dual(builtin(name)))]
        spaces += [seeded_relations(rng) for _ in range(200)]
        # empty and full spaces occur, and spaces on four operations
        assert any(s.dimension == 0 for s in spaces)
        assert any(s.dimension == s.ambient_dim for s in spaces)
        assert 2 * 4 * 4 in {s.ambient_dim for s in spaces}
        for s in spaces:
            assert _ideal_rank.__wrapped__(s, 3) == len(_ideal_echelon(s, 3)) == s.dimension


# Dims of each built-in and of its dual, through weight 6 on two
# operations or fewer and weight 5 on four; computed by elimination and
# frozen.
KEPT_DIMS = {
    "As": ((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
    "Dend": ((1, 2, 5, 14, 42, 132), (1, 2, 3, 4, 5, 6)),
    "Dias": ((1, 2, 3, 4, 5, 6), (1, 2, 5, 14, 42, 132)),
    "DendSquareDias": ((1, 4, 17, 76, 353), (1, 4, 15, 56, 210)),
    "Xplus": ((1, 4, 16, 58, 211), (1, 4, 16, 58, 211)),
    "Xminus": ((1, 4, 16, 56, 210), (1, 4, 16, 56, 210)),
}


def drawn_presentation(rng: random.Random) -> Presentation:
    """A presentation on one to three operations whose relations have one
    to three terms with small coefficients; about half of these have a
    quadratic Gröbner basis under one of the orders the engine tries."""
    k = rng.choice((1, 2, 2, 3, 3, 3))
    ambient = 2 * k * k
    rows = []
    for _ in range(rng.choice((rng.randint(0, k * k), rng.randint(0, ambient)))):
        row = {}
        for _ in range(rng.choice((1, 2, 2, 2, 3))):
            row[rng.randrange(ambient)] = rng.choice((1, -1, 1, -1, 2, -3))
        rows.append(row)
    return Presentation(GeneratorSet(tuple("abc"[:k])), span_rows(rows, ambient))


def echelon_dim(p: Presentation, n: int) -> int:
    """The weight-n dim as the ambient size minus a fresh echelon's rank."""
    return catalan(n - 1) * p.num_ops ** (n - 1) - len(_ideal_echelon(p.relations, n))


class TestDimsKept:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_and_duals(self, name):
        for p, dims in zip((builtin(name), dual(builtin(name))), KEPT_DIMS[name]):
            assert tuple(component_dim(p, n) for n in range(1, len(dims) + 1)) == dims


QUADRATIC_BASIS = ("As", "Dend", "Dias")


@lru_cache(maxsize=None)
def columns(k: int, n: int) -> dict:
    """The engine's column of each weight-n monomial: its basis index."""
    return {m: i for i, m in enumerate(weight_basis(k, n))}


def mirror(shape, labels):
    """Left-right reflection; pre-order visits the root, then the mirrored
    right subtree, then the mirrored left one."""
    if shape is None:
        return None, ()
    left_leaves = leaf_count(shape[0])
    left, left_labels = mirror(shape[0], labels[1:left_leaves])
    right, right_labels = mirror(shape[1], labels[left_leaves:])
    return (right, left), (labels[0],) + right_labels + left_labels


def edge_columns(m: TreeMonomial, k: int) -> set:
    """The weight-3 column s*k^2 + a*k + b of each edge of a monomial: a
    vertex labelled a whose child on side s is a vertex labelled b."""
    out = set()
    labels = iter(m.labels)

    def go(t) -> int:
        a = next(labels)
        for side, child in enumerate(t):
            if child is not None:
                out.add(side * k * k + a * k + go(child))
        return a

    if m.shape is not None:
        go(m.shape)
    return out


class TestNormalTreeCount:
    """Dims counted as normal trees of a quadratic Gröbner basis."""

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(deadline=None, max_examples=60)
    def test_counts_against_every_tree(self, k, data):
        forbidden = frozenset(data.draw(st.sets(st.integers(min_value=0, max_value=2 * k * k - 1))))
        for n in range(1, 6):
            normal = sum(1 for m in weight_basis(k, n) if not edge_columns(m, k) & forbidden)
            assert _normal_count(k, forbidden, n) == normal

    def test_drawn_presentations_against_the_echelon(self):
        # wherever the search finds a basis, the count is the rank
        rng = random.Random(2029)
        counted = 0
        for _ in range(1000):
            p = drawn_presentation(rng)
            if _normal_edges(p.relations) is None:
                continue
            counted += 1
            for n in (5, 6):
                assert component_dim(p, n) == echelon_dim(p, n)
        assert counted >= 400

    @pytest.mark.parametrize(
        "name,dims", (("Dend", closed_form_catalan), ("Dias", lambda n: n), ("As", lambda n: 1))
    )
    def test_no_elimination_from_weight_five(self, monkeypatch, name, dims):
        echelon = expansion._ideal_echelon

        def below_five(relations, n):
            if n >= 5:
                raise AssertionError(f"eliminated at weight {n}")
            return echelon(relations, n)

        monkeypatch.setattr(expansion, "_ideal_echelon", below_five)
        _ideal_rank.cache_clear()
        _normal_edges.cache_clear()
        p = builtin(name)
        assert [component_dim(p, n) for n in range(1, 31)] == [dims(n) for n in range(1, 31)]

    @pytest.mark.parametrize("name,dim5", (("Xplus", 211), ("Xminus", 210)))
    def test_sixteen_relation_pair_still_eliminates(self, monkeypatch, name, dim5):
        weights = []
        echelon = expansion._ideal_echelon

        def recorded(relations, n):
            weights.append(n)
            return echelon(relations, n)

        monkeypatch.setattr(expansion, "_ideal_echelon", recorded)
        _ideal_rank.cache_clear()
        _normal_edges.cache_clear()
        assert component_dim(builtin(name), 5) == dim5
        assert weights == [4, 5]

    def test_many_operations_eliminate_without_searching(self, monkeypatch):
        # Xplus with six free operations added: 2 * 10! orders of 16 rows
        # are more rows than the 33,600 generators of weight 5
        xplus = builtin("Xplus")
        k = 10

        def moved(c):
            side, rest = divmod(c, 16)
            return (side * k + rest // 4) * k + rest % 4

        rows = [{moved(c): x for c, x in row} for row in xplus.relations.rows]
        names = xplus.generators.names + tuple(f"f{i}" for i in range(6))
        p = Presentation(GeneratorSet(names), span_rows(rows, 2 * k * k))

        def searched(relations):
            raise AssertionError("searched for a basis")

        monkeypatch.setattr(expansion, "_normal_edges", searched)
        assert weight_work(p, 5) == (33_600, 140_000)
        assert component_dim(p, 5) == echelon_dim(p, 5) == 110_491

    def test_search_waits_for_a_weight_that_outweighs_it(self, monkeypatch):
        # one monomial relation on six operations: 2 * 6! = 1,440 orders
        # against 756 generator rows at weight 5 and 18,144 at weight 6
        names = tuple("abcdef")
        p = Presentation(GeneratorSet(names), span_rows([{0: 1}], 72))
        searches = []
        search = expansion._normal_edges

        def recorded(relations):
            searches.append(relations)
            return search(relations)

        monkeypatch.setattr(expansion, "_normal_edges", recorded)
        assert component_dim(p, 5) == echelon_dim(p, 5)
        assert searches == []
        assert component_dim(p, 6) == echelon_dim(p, 6)
        assert searches == [p.relations]
        assert search(p.relations) == frozenset({0})

    @pytest.mark.parametrize(
        "relation",
        (
            # a basis only under the mirror of the column order
            "(x b y) b z = x a (y b z) - x b (y b z)",
            # a basis only under the column order with the labels swapped
            "(x a y) a z - (x a y) b z = 3 * x a (y a z)",
        ),
    )
    def test_mirror_and_label_variants_are_tried(self, relation):
        vector, diagnostics = parse_relation(relation, ("a", "b"))
        assert diagnostics == ()
        p = Presentation(GeneratorSet(("a", "b")), span([vector.coordinates], 8))
        assert _normal_edges(p.relations) is not None
        for n in (5, 6):
            assert component_dim(p, n) == echelon_dim(p, n)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_which_builtins_have_a_basis(self, name):
        for p in (builtin(name), dual(builtin(name))):
            found = _normal_edges(p.relations) is not None
            assert found == (name in QUADRATIC_BASIS)

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_orders_are_admissible(self, data):
        # the column order and its label and mirror variants: for alpha <
        # beta of one arity, gamma o_i alpha < gamma o_i beta and
        # alpha o_i gamma < beta o_i gamma at every leaf i
        k = data.draw(st.integers(min_value=1, max_value=3))
        a = data.draw(st.integers(min_value=2, max_value=4))
        b = data.draw(st.integers(min_value=1, max_value=6 - a))
        perm = data.draw(st.sampled_from(list(itertools.permutations(range(k)))))
        flip = data.draw(st.booleans())

        def key(m):
            labels = tuple(perm[g] for g in m.labels)
            shape, labels = mirror(m.shape, labels) if flip else (m.shape, labels)
            return columns(k, m.arity)[TreeMonomial(shape, labels)]

        basis = weight_basis(k, a)
        assume(len(basis) >= 2)
        i, j = data.draw(st.lists(st.sampled_from(range(len(basis))), min_size=2, max_size=2, unique=True))
        alpha, beta = sorted((basis[i], basis[j]), key=key)
        gamma = data.draw(st.sampled_from(weight_basis(k, b)))
        for leaf in range(b):
            assert key(graft(gamma, leaf, alpha)) < key(graft(gamma, leaf, beta))
        for leaf in range(a):
            assert key(graft(alpha, leaf, gamma)) < key(graft(beta, leaf, gamma))


def streaming_echelon(relations, n: int):
    """Oracle: the weight-n generators reduced one at a time, in the order
    ``_ideal_generators`` builds them, with no sorting."""
    k = isqrt(relations.ambient_dim // 2)
    echelon = {}
    insert_rows(echelon, _ideal_generators(k, relations.rows, n))
    return echelon


def assert_order_independent(relations, n: int) -> None:
    expected = streaming_echelon(relations, n)
    echelon = _ideal_echelon(relations, n)
    assert len(echelon) == len(expected)
    assert set(echelon) == set(expected)
    k = isqrt(relations.ambient_dim // 2)
    size = catalan(n - 1) * k ** (n - 1)
    assert echelon_subspace(echelon, size) == echelon_subspace(expected, size)


class TestReductionOrder:
    """The sorted reduction gives the rank, lead columns and RREF of the
    generators reduced in the order they are built."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_at_weights_three_to_five(self, name):
        for n in (3, 4, 5):
            assert_order_independent(builtin(name).relations, n)

    @given(small_presentations(), st.sampled_from((3, 4, 5)))
    @settings(deadline=None, max_examples=40)
    def test_drawn_presentations(self, p, n):
        assert_order_independent(p.relations, n)


def generator_count(p: Presentation, n: int) -> int:
    return sum(1 for _ in _ideal_generators(p.num_ops, p.relations.rows, n))


def assert_work_counted(p: Presentation, n: int) -> None:
    ambient = len(weight_basis(p.num_ops, n))
    assert weight_work(p, n) == (generator_count(p, n), ambient)


class TestWeightWork:
    """The closed-form counts the CLI preflight refuses work by."""

    def test_context_count_closed_form(self):
        for n in range(3, 10):
            assert comb(2 * n - 3, n) == len(_context_layouts(n))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_and_duals_at_weights_three_to_six(self, name):
        for p in (builtin(name), dual(builtin(name))):
            for n in (3, 4, 5, 6):
                assert weight_work(p, n)[0] == generator_count(p, n)

    @given(small_presentations(), st.sampled_from((3, 4, 5)))
    @settings(deadline=None, max_examples=40)
    def test_drawn_presentations(self, p, n):
        assert_work_counted(p, n)

    @pytest.mark.parametrize("k", (1, 2))
    def test_zero_relations(self, k):
        p = Presentation(GeneratorSet(tuple("ab"[:k])), span([], 2 * k * k))
        for n in (3, 4, 5):
            assert_work_counted(p, n)
        assert weight_work(p, 5)[0] == 0

    def test_no_ideal_below_weight_three(self):
        p = builtin("Xplus")
        assert weight_work(p, 1) == (0, 1)
        assert weight_work(p, 2) == (0, 4)
        with pytest.raises(ValueError):
            weight_work(p, 0)


def vertex_paths(t, path=()):
    """Root-to-vertex paths (0 left, 1 right) of every vertex, pre-order."""
    if t is None:
        return []
    return [path] + vertex_paths(t[0], path + (0,)) + vertex_paths(t[1], path + (1,))


def replaced(t, path, new):
    if not path:
        return new
    children = list(t)
    children[path[0]] = replaced(t[path[0]], path[1:], new)
    return tuple(children)


def rotation_oracle(n: int) -> list:
    """Brute force: every n-leaf tree rotated at every vertex with a left
    child, ((a, b), c) to (a, (b, c)), as (tree, rotated tree) pairs."""
    pairs = []
    for t in enumerate_trees(n):
        for path in vertex_paths(t):
            vertex = t
            for side in path:
                vertex = vertex[side]
            left, c = vertex
            if left is not None:
                a, b = left
                pairs.append((t, replaced(t, path, (a, (b, c)))))
    return pairs


def labelled(shape, marks):
    """The tree with its vertices labelled by ``marks`` in pre-order and
    its leaves numbered left to right: (label, left, right) or a number."""
    marks, leaves = iter(marks), itertools.count()

    def go(t):
        if t is None:
            return next(leaves)
        mark = next(marks)
        return (mark, go(t[0]), go(t[1]))

    return go(shape)


def comb_at(t, mark):
    """The tree with the vertex labelled ``mark`` cut out as "comb", and
    that vertex's subtree."""
    if not isinstance(t, tuple):
        return t, None
    if t[0] == mark:
        return "comb", t
    label, left, right = t
    left, found = comb_at(left, mark)
    right, other = comb_at(right, mark)
    return (label, left, right), found or other


class TestRotations:
    """``_context_layouts`` pairs each tree with its rotations and places
    op_i and op_j where the two combs have them."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pairs_are_every_rotation_once(self, n):
        trees = enumerate_trees(n)
        pairs = [(trees[left[0]], trees[right[0]]) for left, right in _context_layouts(n)]
        oracle = rotation_oracle(n)
        assert len(set(oracle)) == len(oracle) == comb(2 * n - 3, n)
        assert Counter(pairs) == Counter(oracle)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_combs_sit_at_the_same_leaves(self, n):
        trees = enumerate_trees(n)
        for layouts in _context_layouts(n):
            cut = []
            # the left comb's top vertex is op_j, the right comb's op_i
            for (shape, i, j), top in zip(layouts, "ji"):
                # op_i and op_j get marks, the other vertices 0, 1, ... in
                # pre-order
                others = iter(range(n))
                marks = [
                    "i" if pos == i else "j" if pos == j else next(others)
                    for pos in range(n - 1)
                ]
                cut.append(comb_at(labelled(trees[shape], marks), top))
            (left_rest, left_comb), (right_rest, right_comb) = cut
            # (x i y) j z on the left, x i (y j z) on the right
            _, (inner, x, y), z = left_comb
            assert left_comb[0] == "j" and inner == "i"
            assert right_comb == ("i", x, ("j", y, z))
            assert left_rest == right_rest


def _graft(shape, labels, position: int, inner: TreeMonomial):
    if shape is None:
        return inner.shape, list(inner.labels)
    left_leaves = leaf_count(shape[0])
    left_labels = labels[1:left_leaves]
    right_labels = labels[left_leaves:]
    if position < left_leaves:
        new_left, new_left_labels = _graft(shape[0], left_labels, position, inner)
        return (
            (new_left, shape[1]),
            [labels[0]] + new_left_labels + list(right_labels),
        )
    new_right, new_right_labels = _graft(
        shape[1], right_labels, position - left_leaves, inner
    )
    return (
        (shape[0], new_right),
        [labels[0]] + list(left_labels) + new_right_labels,
    )


def graft(outer: TreeMonomial, position: int, inner: TreeMonomial) -> TreeMonomial:
    """Substitute ``inner`` at leaf ``position`` (0-based, left to right)."""
    if not 0 <= position < outer.arity:
        raise ValueError(
            f"leaf position {position} out of range for arity {outer.arity}"
        )
    shape, labels = _graft(outer.shape, outer.labels, position, inner)
    return TreeMonomial(shape, tuple(labels))


class TestMonomialsAndGrafting:
    def test_label_count_validated(self):
        with pytest.raises(ValueError):
            TreeMonomial(NODE, ())
        with pytest.raises(ValueError):
            TreeMonomial(LEAF, (0,))
        with pytest.raises(ValueError):
            TreeMonomial(NODE, (-1,))

    def test_graft_into_bare_leaf_is_identity(self):
        inner = TreeMonomial((NODE, LEAF), (1, 0))
        assert graft(TreeMonomial(LEAF, ()), 0, inner) == inner

    def test_graft_at_first_leaf_builds_left_comb(self):
        outer = TreeMonomial(NODE, (3,))
        inner = TreeMonomial(NODE, (5,))
        result = graft(outer, 0, inner)
        assert result == TreeMonomial((NODE, LEAF), (3, 5))

    def test_graft_at_second_leaf_builds_right_comb(self):
        outer = TreeMonomial(NODE, (3,))
        inner = TreeMonomial(NODE, (5,))
        result = graft(outer, 1, inner)
        assert result == TreeMonomial((LEAF, NODE), (3, 5))

    def test_graft_position_out_of_range(self):
        outer = TreeMonomial(NODE, (0,))
        inner = TreeMonomial(NODE, (0,))
        with pytest.raises(ValueError):
            graft(outer, 2, inner)
        with pytest.raises(ValueError):
            graft(outer, -1, inner)

    def test_graft_arity_adds(self):
        outer = TreeMonomial((NODE, NODE), (0, 1, 2))
        inner = TreeMonomial(NODE, (3,))
        for pos in range(4):
            assert graft(outer, pos, inner).arity == 5

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    @settings(deadline=None, max_examples=40)
    def test_disjoint_grafts_commute(self, p1, p2, data):
        outer_tree = data.draw(st.sampled_from(enumerate_trees(4)))
        outer = TreeMonomial(outer_tree, (0, 1, 2))
        a = TreeMonomial(NODE, (3,))
        b = TreeMonomial((NODE, LEAF), (4, 5))
        if p1 == p2:
            return
        lo, hi = min(p1, p2), max(p1, p2)
        # grafting at the lower leaf first shifts the higher leaf's index
        first_low = graft(graft(outer, lo, a), hi + a.arity - 1, b)
        first_high = graft(graft(outer, hi, b), lo, a)
        assert first_low == first_high


_LEFT_COMB = (NODE, LEAF)
_RIGHT_COMB = (LEAF, NODE)


def reference_ideal_span(p: Presentation, n: int):
    """The ideal's weight-n component by one-step grafting, a construction
    independent of the engine's tree contexts.

    Weight 3 is the relation space: coordinate i*k + j is the left comb with
    pre-order labels (j, i), k*k + i*k + j the right comb with labels (i, j).
    Each higher weight grafts a single operation into every leaf of every
    basis vector of the previous weight, and every such vector into either
    slot of a single operation, then reduces with ``span``.
    """
    k = p.num_ops
    basis = weight_basis(k, n)
    index = {m: i for i, m in enumerate(basis)}
    vecs = []
    if n == 3:
        quad = [TreeMonomial(_LEFT_COMB, (j, i)) for i in range(k) for j in range(k)]
        quad += [TreeMonomial(_RIGHT_COMB, (i, j)) for i in range(k) for j in range(k)]
        for row in p.relations.rational_rows():
            out = [Fraction(0)] * len(basis)
            for c, mon in zip(row, quad):
                out[index[mon]] += c
            vecs.append(out)
        return span(vecs, len(basis))
    prev_basis = weight_basis(k, n - 1)
    for row in reference_ideal_span(p, n - 1).rational_rows():
        terms = [(c, prev_basis[i]) for i, c in enumerate(row) if c]
        for g in (TreeMonomial(NODE, (x,)) for x in range(k)):
            composites = [lambda m, pos=pos: graft(m, pos, g) for pos in range(n - 1)]
            composites += [lambda m, slot=slot: graft(g, slot, m) for slot in (0, 1)]
            for compose in composites:
                out = [Fraction(0)] * len(basis)
                for c, mon in terms:
                    out[index[compose(mon)]] += c
                vecs.append(out)
    return span(vecs, len(basis))


def assert_matches_reference(p: Presentation, n: int) -> None:
    reference = reference_ideal_span(p, n)
    assert ideal_span(p, n) == reference
    pivots = set(reference.pivot_columns())
    basis = weight_basis(p.num_ops, n)
    expected = tuple(m for i, m in enumerate(basis) if i not in pivots)
    assert weight_component(p, n).surviving_monomials() == expected


class TestAgainstGraftingReference:
    @pytest.mark.parametrize("name", ("As", "Dend", "Dias", "DendSquareDias", "Xplus", "Xminus"))
    def test_builtins_at_weight_four(self, name):
        assert_matches_reference(builtin(name), 4)

    @pytest.mark.parametrize("name", ("Dend", "Dias"))
    def test_two_operation_builtins_at_weight_five(self, name):
        assert_matches_reference(builtin(name), 5)

    @given(small_presentations(), st.sampled_from((4, 5)))
    @settings(deadline=None, max_examples=25)
    def test_drawn_presentations(self, p, n):
        assert_matches_reference(p, n)


class TestComponentAndFormatting:
    def test_surviving_monomials_for_associativity(self):
        comp = weight_component(builtin("As"), 3)
        assert comp.dimension == 1
        survivors = comp.surviving_monomials()
        assert len(survivors) == 1
        assert format_monomial(survivors[0], ("·",)) == "x · (y · z)"

    def test_surviving_monomials_for_half_products(self):
        comp = weight_component(builtin("Dend"), 3)
        survivors = comp.surviving_monomials()
        names = builtin("Dend").generators.names
        rendered = [format_monomial(m, names) for m in survivors]
        assert len(rendered) == 5
        assert "(x ∨ y) ∨ z" in rendered
        assert "x ∧ (y ∧ z)" in rendered

    def test_low_weight_components_have_zero_ideal(self):
        comp = weight_component(builtin("Dend"), 2)
        assert comp.pivots == ()
        assert comp.dimension == 2

    def test_format_weight_four(self):
        left_comb4 = ((NODE, LEAF), LEAF)
        m = TreeMonomial(left_comb4, (0, 0, 0))
        assert format_monomial(m, ("·",)) == "((x · y) · z) · w"

    def test_format_quadratic_shapes(self):
        names = ("⊣", "⊢")
        m = TreeMonomial((LEAF, NODE), (0, 1))
        assert format_monomial(m, names) == "x ⊣ (y ⊢ z)"
        m2 = TreeMonomial((NODE, LEAF), (1, 0))
        assert format_monomial(m2, names) == "(x ⊣ y) ⊢ z"
