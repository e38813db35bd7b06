"""Unit and property tests for the ROBDD engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.errors import ResourceLimitExceeded


@pytest.fixture()
def manager():
    return BDDManager()


class TestBasics:
    def test_constants(self, manager):
        assert manager.true.is_true
        assert manager.false.is_false
        assert manager.true != manager.false
        assert manager.true.is_constant and manager.false.is_constant

    def test_variable_identity(self, manager):
        a1 = manager.declare("a")
        a2 = manager.declare("a")
        assert a1 == a2
        assert manager.num_vars == 1

    def test_variable_is_not_constant(self, manager):
        a = manager.declare("a")
        assert not a.is_constant

    def test_name_registry(self, manager):
        manager.declare("x")
        manager.declare("y")
        assert manager.name_of(manager.level_of("y")) == "y"

    def test_var_out_of_range(self, manager):
        with pytest.raises(ValueError):
            manager.var(3)


class TestConnectives:
    def test_and_or_not_truth_table(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        for va in (False, True):
            for vb in (False, True):
                env = {manager.level_of("a"): va, manager.level_of("b"): vb}
                assert (a & b).evaluate(env) == (va and vb)
                assert (a | b).evaluate(env) == (va or vb)
                assert (a ^ b).evaluate(env) == (va != vb)
                assert (~a).evaluate(env) == (not va)
                assert (a - b).evaluate(env) == (va and not vb)
                assert (a >> b).evaluate(env) == ((not va) or vb)

    def test_canonicity_of_equivalent_formulas(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        # De Morgan
        assert ~(a & b) == (~a | ~b)
        # Absorption
        assert (a & (a | b)) == a
        # Double negation
        assert ~~a == a

    def test_xor_via_ite(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        assert (a ^ b) == ((a & ~b) | (~a & b))

    def test_ite(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        c = manager.declare("c")
        ite = manager.ite(a, b, c)
        assert ite == ((a & b) | (~a & c))

    def test_equiv(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        assert a.equiv(a).is_true
        assert (a.equiv(b) & a & ~b).is_false

    def test_implies(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        assert (a & b).implies(a)
        assert not a.implies(a & b)
        assert manager.false.implies(a)
        assert a.implies(manager.true)

    def test_conjoin_disjoin(self, manager):
        variables = [manager.declare(f"x{i}") for i in range(5)]
        conjunction = manager.conjoin(variables)
        disjunction = manager.disjoin(variables)
        all_true = {i: True for i in range(5)}
        all_false = {i: False for i in range(5)}
        assert conjunction.evaluate(all_true) and not conjunction.evaluate(all_false)
        assert disjunction.evaluate(all_true) and not disjunction.evaluate(all_false)

    def test_mixing_managers_is_rejected(self):
        first = BDDManager()
        second = BDDManager()
        a = first.declare("a")
        b = second.declare("b")
        with pytest.raises(ValueError):
            _ = a & b

    def test_boolean_coercion(self, manager):
        a = manager.declare("a")
        assert (a & True) == a
        assert (a & False).is_false
        assert (a | True).is_true


class TestQueries:
    def test_node_count_single_variable(self, manager):
        a = manager.declare("a")
        assert a.node_count() == 1
        assert manager.true.node_count() == 0

    def test_support(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        c = manager.declare("c")
        f = (a & b) | c
        assert f.support() == {0, 1, 2}
        assert (a & ~a).support() == set()

    def test_restrict(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        f = a & b
        assert f.restrict({manager.level_of("a"): True}) == b
        assert f.restrict({manager.level_of("a"): False}).is_false

    def test_compose(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        c = manager.declare("c")
        f = a & b
        composed = manager.compose(f, manager.level_of("a"), c | b)
        assert composed == ((c | b) & b)

    def test_exists_forall(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        f = a & b
        assert f.exists([manager.level_of("a")]) == b
        assert f.forall([manager.level_of("a")]).is_false
        g = a | b
        assert g.forall([manager.level_of("a")]) == b

    def test_satisfy_one(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        f = a & ~b
        assignment = f.satisfy_one()
        assert assignment is not None
        assert f.evaluate(assignment)
        assert manager.false.satisfy_one() is None

    def test_satisfy_count(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        c = manager.declare("c")
        assert manager.true.satisfy_count() == 8
        assert manager.false.satisfy_count() == 0
        assert a.satisfy_count() == 4
        assert (a & b).satisfy_count() == 2
        assert (a | b | c).satisfy_count() == 7

    def test_iter_nodes(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        f = a & b
        nodes = list(manager.iter_nodes(f))
        assert len(nodes) == f.node_count() == 2

    def test_clear_caches_preserves_functions(self, manager):
        a = manager.declare("a")
        b = manager.declare("b")
        f = a & b
        manager.clear_caches()
        assert (a & b) == f


class TestInclusionCache:
    """The inclusion memo follows the same rules as the ``ite`` cache."""

    @staticmethod
    def _ask(manager):
        a, b, c = (manager.declare(name) for name in "abc")
        assert (a & b & c).implies(a | c)
        assert not (a | b).implies(a & c)

    def test_statistics_report_the_memo(self, manager):
        assert manager.statistics()["leq_cache_entries"] == 0
        self._ask(manager)
        assert manager.statistics()["leq_cache_entries"] > 0

    def test_disabled_computed_cache_disables_the_memo(self):
        manager = BDDManager(use_computed_cache=False)
        self._ask(manager)
        assert manager.statistics()["leq_cache_entries"] == 0
        assert manager.statistics()["ite_cache_entries"] == 0

    def test_clear_caches_drops_the_memo(self, manager):
        self._ask(manager)
        manager.clear_caches()
        assert manager.statistics()["leq_cache_entries"] == 0
        self._ask(manager)

    def test_recycled_manager_starts_without_the_memo(self, manager):
        self._ask(manager)
        fresh = manager.fresh_like()
        assert fresh.statistics()["leq_cache_entries"] == 0
        assert fresh.use_computed_cache == manager.use_computed_cache

    def test_scoped_view_shares_the_base_memo(self, manager):
        scope = manager.scoped("P")
        self._ask(scope)
        assert manager.statistics()["leq_cache_entries"] > 0


class TestResourceLimits:
    def test_node_budget(self):
        manager = BDDManager(max_nodes=6)
        variables = [manager.declare(f"x{i}") for i in range(5)]
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            manager.conjoin([a ^ b for a, b in zip(variables, variables[1:])])
        assert excinfo.value.kind == "mem"

    def test_budget_not_hit_for_small_use(self):
        manager = BDDManager(max_nodes=50)
        a = manager.declare("a")
        b = manager.declare("b")
        assert (a & b).node_count() == 2


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

_NUM_VARS = 5


@st.composite
def formulas(draw, depth=3):
    """Random boolean formulas as nested tuples."""
    if depth == 0:
        return draw(
            st.one_of(
                st.integers(min_value=0, max_value=_NUM_VARS - 1),
                st.booleans(),
            )
        )
    return draw(
        st.one_of(
            st.integers(min_value=0, max_value=_NUM_VARS - 1),
            st.booleans(),
            st.tuples(st.just("not"), formulas(depth=depth - 1)),
            st.tuples(
                st.sampled_from(["and", "or", "xor"]),
                formulas(depth=depth - 1),
                formulas(depth=depth - 1),
            ),
        )
    )


def _to_bdd(manager, formula):
    if isinstance(formula, bool):
        return manager.true if formula else manager.false
    if isinstance(formula, int):
        return manager.declare(f"p{formula}")
    if formula[0] == "not":
        return ~_to_bdd(manager, formula[1])
    left = _to_bdd(manager, formula[1])
    right = _to_bdd(manager, formula[2])
    if formula[0] == "and":
        return left & right
    if formula[0] == "or":
        return left | right
    return left ^ right


def _evaluate(formula, assignment):
    if isinstance(formula, bool):
        return formula
    if isinstance(formula, int):
        return assignment[formula]
    if formula[0] == "not":
        return not _evaluate(formula[1], assignment)
    left = _evaluate(formula[1], assignment)
    right = _evaluate(formula[2], assignment)
    if formula[0] == "and":
        return left and right
    if formula[0] == "or":
        return left or right
    return left != right


@settings(max_examples=150, deadline=None)
@given(formulas(), st.lists(st.booleans(), min_size=_NUM_VARS, max_size=_NUM_VARS))
def test_bdd_agrees_with_direct_evaluation(formula, values):
    """The BDD of a formula computes the same function as the formula."""
    manager = BDDManager()
    for index in range(_NUM_VARS):
        manager.declare(f"p{index}")
    bdd = _to_bdd(manager, formula)
    assignment = {index: values[index] for index in range(_NUM_VARS)}
    assert bdd.evaluate(assignment) == _evaluate(formula, dict(enumerate(values)))


@settings(max_examples=100, deadline=None)
@given(formulas(), formulas())
def test_bdd_canonicity(first, second):
    """Two formulas denote the same function iff their BDDs are equal."""
    manager = BDDManager()
    for index in range(_NUM_VARS):
        manager.declare(f"p{index}")
    bdd_first = _to_bdd(manager, first)
    bdd_second = _to_bdd(manager, second)
    same_function = all(
        _evaluate(first, dict(enumerate(values))) == _evaluate(second, dict(enumerate(values)))
        for values in _all_assignments(_NUM_VARS)
    )
    assert (bdd_first == bdd_second) == same_function


def _all_assignments(count):
    for mask in range(1 << count):
        yield [bool(mask & (1 << index)) for index in range(count)]


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_satisfy_count_matches_enumeration(formula):
    manager = BDDManager()
    for index in range(_NUM_VARS):
        manager.declare(f"p{index}")
    bdd = _to_bdd(manager, formula)
    expected = sum(
        1
        for values in _all_assignments(_NUM_VARS)
        if _evaluate(formula, dict(enumerate(values)))
    )
    assert bdd.satisfy_count(_NUM_VARS) == expected


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_negation_is_involutive_and_complements_count(formula):
    manager = BDDManager()
    for index in range(_NUM_VARS):
        manager.declare(f"p{index}")
    bdd = _to_bdd(manager, formula)
    assert ~~bdd == bdd
    assert bdd.satisfy_count(_NUM_VARS) + (~bdd).satisfy_count(_NUM_VARS) == 2 ** _NUM_VARS


def _constructive_implies(first, second):
    """The reference inclusion test: build ``first & ~second``, compare with false."""
    return (first & ~second).is_false


@settings(max_examples=200, deadline=None)
@given(formulas(), formulas(), st.sampled_from(["any", "meet", "join"]))
def test_implies_matches_constructive_inclusion(first, second, shape):
    """``f.implies(g)`` decides ``f & ~g == 0`` without allocating a node.

    ``meet``/``join`` derive one operand from the other so that inclusion
    holds in a good share of the examples (random pairs rarely include
    each other); constants and operands whose top variables sit at
    different levels come from the formula strategy itself.
    """
    manager = BDDManager()
    for index in range(_NUM_VARS):
        manager.declare(f"p{index}")
    f = _to_bdd(manager, first)
    g = _to_bdd(manager, second)
    if shape == "meet":
        f = f & g
    elif shape == "join":
        g = f | g
    pairs = [(f, g), (g, f), (f, f), (f, ~f), (manager.true, f), (f, manager.false)]
    for left, right in pairs:
        before = manager.num_nodes
        answer = left.implies(right)
        assert manager.num_nodes == before
        assert answer == _constructive_implies(left, right)
        # Inclusion is the subset relation on satisfying assignments.
        assert answer == all(
            right.evaluate(assignment)
            for assignment in (
                dict(enumerate(values)) for values in _all_assignments(_NUM_VARS)
            )
            if left.evaluate(assignment)
        )
