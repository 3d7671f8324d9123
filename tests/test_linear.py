"""Exact linear solving over the scalar ring."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from contactframe.linear import exact_fit, solve_linear
from contactframe.scalars import Scalar

P = ()


def c(value):
    return Scalar.constant(P, Fraction(value))


def test_unique_rational_system():
    rows = [[c(2), c(1)], [c(1), c(-1)]]
    rhs = [c(5), c(1)]
    sol = solve_linear(rows, rhs, P)
    assert sol is not None
    assert sol.free_columns == ()
    assert sol.values == (c(2), c(1))


def test_inconsistent_system_is_none():
    rows = [[c(1), c(1)], [c(2), c(2)]]
    rhs = [c(1), c(3)]
    assert solve_linear(rows, rhs, P) is None


def test_underdetermined_reports_free_columns():
    rows = [[c(1), c(1)]]
    rhs = [c(3)]
    sol = solve_linear(rows, rhs, P)
    assert sol is not None
    assert sol.free_columns == (1,)
    # the free unknown takes the default value 1, the pivot follows
    assert sol.values == (c(2), c(1))


def test_zero_rows_consistent_and_inconsistent():
    rows = [[c(0), c(0)]]
    assert solve_linear(rows, [c(0)], P) is not None
    assert solve_linear(rows, [c(1)], P) is None


def test_duplicate_rows_leave_the_solution_unchanged():
    """Twin equations never pivot and eliminate to 0 = 0, so dropping them
    (as the space-form and eta-Einstein solves do) changes nothing."""
    params = ("t",)
    t = Scalar.variable(params, "t")
    one, two = Scalar.one(params), Scalar.constant(params, 2)
    systems = [
        # unique solution, with a twin of each equation at either end
        ([[t, one], [one, -one]], [t * t + one, t - one]),
        # underdetermined: the free column and its default value must survive
        ([[one, one, two], [two, two, t]], [t, two * t]),
        # inconsistent stays inconsistent
        ([[one, one], [one, one]], [one, two]),
    ]
    solvable = []
    for rows, rhs in systems:
        want = solve_linear(rows, rhs, params)
        twinned = rows + rows[::-1] + rows
        assert solve_linear(twinned, rhs + rhs[::-1] + rhs, params) == want
        solvable.append(want is not None)
    assert solvable == [True, True, False]


def test_symbolic_exact_solution():
    params = ("t",)
    t = Scalar.variable(params, "t")
    one = Scalar.one(params)
    # x + y = t^2 - 1, x - y = -(t^2 - 1)  ->  x = 0, y = t^2 - 1... requires
    # dividing by 2 only, staying polynomial
    rows = [[one, one], [one, -one]]
    rhs = [t * t - one, one - t * t]
    sol = solve_linear(rows, rhs, params)
    assert sol is not None
    assert sol.values[0].is_zero()
    assert sol.values[1] == t * t - one


def test_symbolic_nonpolynomial_solution_is_none():
    params = ("t",)
    t = Scalar.variable(params, "t")
    one = Scalar.one(params)
    # t * x = 1 has no polynomial solution in x
    assert solve_linear([[t]], [one], params) is None


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_linear([[c(1)]], [c(1), c(2)], P)
    with pytest.raises(ValueError):
        solve_linear([[c(1), c(2)], [c(1)]], [c(1), c(2)], P)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_zero_rows_leave_the_solution_unchanged(stride):
    """A 0 = 0 row is never a pivot and never eliminated against, so
    interleaving such rows (or dropping them) leaves the solution equal."""
    params = ("t",)
    t = Scalar.variable(params, "t")
    one, zero = Scalar.one(params), Scalar.zero(params)
    # rank 2 in three unknowns, with equal-cost pivot candidates
    rows = [[t, one, zero], [one, t, one], [t + one, t + one, one], [t + t, one + one, zero]]
    rhs = [t + one, t * t + t + one, t * t + t + t + one + one, t + t + one + one]
    baseline = solve_linear(rows, rhs, params)
    assert baseline is not None and baseline.free_columns == (2,)

    padded_rows, padded_rhs = [], []
    for position, (row, target) in enumerate(zip(rows, rhs)):
        if position % stride == 0:
            padded_rows.append([zero, zero, zero])
            padded_rhs.append(zero)
        padded_rows.append(row)
        padded_rhs.append(target)
    padded_rows.append([zero, zero, zero])
    padded_rhs.append(zero)
    assert solve_linear(padded_rows, padded_rhs, params) == baseline


T = ("t",)
t, one, two, three = (Scalar.variable(T, "t"), *(Scalar.constant(T, v) for v in (1, 2, 3)))

FIT_SYSTEMS = [
    # unique: 2x + y = 3, x - y = 0 (the target names no index 1), t x = t
    ({0: three, 3: t}, ({0: two, 1: one, 3: t}, {0: one, 1: -one}), ((one, one), ())),
    # underdetermined: the second template is twice the first, so y is free
    # and takes 1; index 2 is a twin of index 0
    (
        {0: three, 1: three * t, 2: three},
        ({0: one, 1: t, 2: one}, {0: two, 1: two * t, 2: two}),
        ((one, one), (1,)),
    ),
    # inconsistent: x = 1 and x = 2
    ({0: one, 1: two}, ({0: one, 1: one},), None),
]


@pytest.mark.parametrize("target, templates, expected", FIT_SYSTEMS)
def test_exact_fit_is_independent_of_the_index_order(target, templates, expected):
    """Relabelling the indices reorders the equations; the solution and its
    free columns stay the same."""
    for order in permutations(range(4)):
        relabel = dict(zip(range(4), order))

        def moved(mapping):
            return {relabel[i]: v for i, v in mapping.items()}

        got = exact_fit(T, moved(target), [moved(tpl) for tpl in templates])
        assert (got and (got.values, got.free_columns)) == expected, order


def test_exact_fit_without_an_equation_is_none():
    assert exact_fit(P, {}, ({}, {})) is None
    # an index named only by the target: 0 * x = 1
    assert exact_fit(P, {(0, 1): c(1)}, ({},)) is None


ENTRIES = [Scalar.zero(T)] * 3 + [one, -one, two, t, t + one, -t, t * t]


@st.composite
def systems(draw):
    """rows @ x = rhs over the polynomials in t with at most five equations
    in at most four unknowns; rhs is rows @ x0 for a drawn x0, plus, at
    random, a drawn offset that may make the system inconsistent."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entry = st.sampled_from(ENTRIES)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    offsets = draw(st.lists(st.sampled_from(ENTRIES[:4] + [one]), min_size=nrows, max_size=nrows))
    rhs = [Scalar.sum_of_products(T, zip(row, x0)) + d for row, d in zip(rows, offsets)]
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(systems())
def test_every_solution_satisfies_every_equation(system):
    """Whatever ``solve_linear`` returns satisfies every input equation
    exactly, its free unknowns at 1 included; so ``exact_fit`` needs no
    substitution of the solution back into its equations."""
    rows, rhs = system
    solution = solve_linear(rows, rhs, T)
    if solution is None:
        return
    for col in solution.free_columns:
        assert solution.values[col] == one
    for row, b in zip(rows, rhs):
        assert Scalar.sum_of_products(T, zip(row, solution.values)) == b
