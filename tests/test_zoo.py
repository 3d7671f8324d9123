"""Catalogue constructors, the deformation map, and derived invariants."""

from fractions import Fraction
from pathlib import Path

import pytest

from contactframe import (
    ZooDomainError,
    boeckx_invariant,
    classify,
    dhomothetic_invariants,
    dump_manifest,
    example1_pipeline,
    levi_civita,
    load_manifest_file,
    make_abelian3,
    make_example1_constants,
    make_heisenberg,
    make_lambda_family,
    make_sasakian3,
    riemann,
    zoo_entry,
)
from contactframe.scalars import Scalar
from contactframe.zoo import ZOO_LABELS

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


# -- deformation ---------------------------------------------------------------


def test_deformation_identity():
    kappa, mu = Fraction(3, 7), Fraction(-5, 2)
    out = dhomothetic_invariants(kappa, mu, Fraction(1))
    assert out[0] == Scalar.constant((), kappa)
    assert out[1] == Scalar.constant((), mu)


def test_deformation_regression_values():
    out = dhomothetic_invariants(Fraction(-8), Fraction(-8), Fraction(5))
    assert out[0] == Scalar.constant((), Fraction(16, 5))
    assert out[1] == Scalar.constant((), 0)
    lit = dhomothetic_invariants(Fraction(-8), Fraction(-8), Fraction(5), literal_c=True)
    assert lit[0] == Scalar.constant((), Fraction(16, 5))
    assert lit[1] == Scalar.constant((), Fraction(-2, 5))


def test_deformation_rejects_zero_scale():
    with pytest.raises(ZooDomainError):
        dhomothetic_invariants(Fraction(1), Fraction(0), Fraction(0))


def test_deformation_symbolic_scale():
    params = ("a",)
    a = Scalar.variable(params, "a")
    kappa = a * a - Scalar.one(params)  # kappa + a^2 - 1 = 2a^2 - 2: not divisible
    with pytest.raises(ZooDomainError):
        dhomothetic_invariants(kappa, Scalar.zero(params), a)
    # but a numerator that is divisible by `a` succeeds symbolically
    one = Scalar.one(params)
    kappa2 = one - a * a + a  # kappa + a^2 - 1 = a
    k_bar, mu_bar = dhomothetic_invariants(kappa2, Scalar.constant(params, 2) - a - a, a)
    assert k_bar == one
    assert mu_bar == Scalar.zero(params)


# -- the rescaled-eigenvalue invariant -----------------------------------------


def test_invariant_golden_value():
    b = boeckx_invariant(Fraction(3, 4), Fraction(0))
    assert b.is_exact
    assert b.value == Fraction(2)
    assert b.square == Fraction(4)
    assert b.sign == 1


def test_invariant_unit_value():
    b = boeckx_invariant(Fraction(0), Fraction(0))
    assert b.is_exact and b.value == Fraction(1)


def test_invariant_inexact_square_root():
    b = boeckx_invariant(Fraction(1, 2), Fraction(0))
    assert not b.is_exact
    assert b.value is None
    assert b.square == Fraction(2)
    assert b.sign == 1
    assert abs(b.approx - 2 ** 0.5) < 1e-12


def test_invariant_zero_and_negative():
    assert boeckx_invariant(Fraction(0), Fraction(2)).value == Fraction(0)
    neg = boeckx_invariant(Fraction(0), Fraction(4))
    assert neg.is_exact and neg.value == Fraction(-1) and neg.sign == -1


def test_invariant_domain():
    with pytest.raises(ZooDomainError):
        boeckx_invariant(Fraction(1), Fraction(0))
    with pytest.raises(ZooDomainError):
        boeckx_invariant(Fraction(2), Fraction(0))


# -- worked deformation pipeline -------------------------------------------------


def test_example_constants_exact():
    plus = make_example1_constants(4, "plus")
    assert (plus.c, plus.a, plus.is_exact) == (Fraction(3), Fraction(4), True)
    minus = make_example1_constants(4, "minus")
    assert (minus.c, minus.a, minus.is_exact) == (Fraction(1, 3), Fraction(4, 3), True)


def test_example_constants_inexact():
    c = make_example1_constants(2, "plus")
    assert not c.is_exact
    assert isinstance(c.c, float)


def test_example_constants_domain():
    with pytest.raises(ZooDomainError):
        make_example1_constants(1)
    with pytest.raises(ZooDomainError):
        make_example1_constants(0)
    with pytest.raises(ZooDomainError):
        make_example1_constants(4, "sideways")


def test_pipeline_plus_branch():
    r = example1_pipeline(4, "plus")
    assert r.is_exact
    assert (r.c, r.a) == (Fraction(3), Fraction(4))
    assert (r.kappa, r.mu) == (Fraction(-3), Fraction(-6))
    assert (r.kappa_bar, r.mu_bar) == (Fraction(3), Fraction(0))
    assert r.target == Fraction(3, 4)
    assert r.difference == Fraction(9, 4)


def test_pipeline_minus_branch():
    r = example1_pipeline(4, "minus")
    assert r.is_exact
    assert (r.c, r.a) == (Fraction(1, 3), Fraction(4, 3))
    assert (r.kappa, r.mu) == (Fraction(5, 9), Fraction(-2, 3))
    assert (r.kappa_bar, r.mu_bar) == (Fraction(1), Fraction(0))
    assert r.difference == Fraction(1, 4)


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("literal_c", [False, True])
def test_pipeline_exact_branch_stays_exact(sign, literal_c):
    """The exact branch reads kappa-bar and mu-bar through ``constant_value()``,
    which stays a Fraction even where the coefficient is stored as an int."""
    r = example1_pipeline(4, sign, literal_c=literal_c)
    assert r.is_exact
    for value in (r.kappa_bar, r.mu_bar, r.difference):
        assert type(value) is Fraction


def test_pipeline_inexact_branch():
    r = example1_pipeline(2, "plus")
    assert not r.is_exact
    assert isinstance(r.kappa_bar, float)


# -- catalogue -------------------------------------------------------------------


def test_lambda_family_entry_symbolic():
    entry = make_lambda_family()
    assert entry.manifold.params == ("lambda",)
    assert entry.label == "lambda"
    assert any("bracket" in note.lower() for note in entry.notes)
    lam = Scalar.variable(("lambda",), "lambda")
    assert entry.expected_kappa == Scalar.one(("lambda",)) - lam * lam


def test_lambda_family_entry_rational():
    entry = make_lambda_family(Fraction(1, 2))
    assert entry.manifold.params == ()
    assert entry.expected_kappa == Scalar.constant((), Fraction(3, 4))


def test_sasakian_entry():
    entry = make_sasakian3()
    assert entry.label == "sasakian3"
    assert entry.expected_kappa == Scalar.one(())


def test_abelian_entry():
    entry = make_abelian3()
    assert entry.manifold.dim == 3
    assert all(
        entry.manifold.bracket_basis(i, j).is_zero()
        for i in range(3)
        for j in range(3)
    )
    assert entry.expected_kappa == Scalar.zero(())


def test_heisenberg_entry():
    """H^5 is the committed manifest, and every H^(2n+1) is Sasakian, kappa = 1."""
    h5 = make_heisenberg(2)
    assert h5.label == "heisenberg5"
    want = dump_manifest(*load_manifest_file(str(MANIFESTS / "heisenberg5.json")))
    assert dump_manifest(h5.manifold, h5.structure) == want
    for n in (1, 3):
        entry = make_heisenberg(n)
        m, s = entry.manifold, entry.structure
        assert m.dim == 2 * n + 1
        lc = levi_civita(m)
        cls = classify(m, s, lc, riemann(m, lc))
        assert cls.is_Sasakian and cls.kappa == entry.expected_kappa == Scalar.one(())
    with pytest.raises(ZooDomainError):
        make_heisenberg(0)


def test_zoo_entry_resolution():
    assert "lambda" in ZOO_LABELS and "sasakian3" in ZOO_LABELS
    entry = zoo_entry("lambda", Fraction(2))
    assert entry.expected_kappa == Scalar.constant((), -3)
    sas = zoo_entry("sasakian3")
    assert sas.label == "sasakian3"
    with pytest.raises(ZooDomainError):
        zoo_entry("sasakian3", Fraction(1, 2))
    with pytest.raises(ZooDomainError):
        zoo_entry("nonexistent")
