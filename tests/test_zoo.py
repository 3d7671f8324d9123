"""Catalogue constructors, the deformation map, and derived invariants."""

from fractions import Fraction
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contactframe import (
    AlmostContactData,
    FrameManifold,
    Instance,
    ZooDomainError,
    boeckx_invariant,
    classify,
    dhomothetic_invariants,
    dump_manifest,
    levi_civita,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    make_sasakian3,
    riemann,
    zoo_entry,
)
from contactframe.scalars import Scalar
from contactframe.zoo import ZOO_LABELS
from vector_reference import column

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


# -- deformation ---------------------------------------------------------------


def test_deformation_identity():
    kappa, mu = Fraction(3, 7), Fraction(-5, 2)
    out = dhomothetic_invariants(kappa, mu, Fraction(1))
    assert out[0] == Scalar.constant((), kappa)
    assert out[1] == Scalar.constant((), mu)


def test_deformation_regression_values():
    out = dhomothetic_invariants(Fraction(-8), Fraction(-8), Fraction(5))
    assert out[0] == Scalar.constant((), Fraction(16, 25))
    assert out[1] == Scalar.constant((), 0)


def test_deformation_rejects_zero_scale():
    with pytest.raises(ZooDomainError):
        dhomothetic_invariants(Fraction(1), Fraction(0), Fraction(0))


@pytest.mark.parametrize("a", [Fraction(-2), Fraction(-1, 3), Fraction(0)])
def test_deformation_rejects_a_nonpositive_constant_scale(a):
    """g' = a g + a(a - 1) eta (x) eta is no metric for a <= 0; a = -2 would
    give (kappa_bar, mu_bar) = (3/4, 3) from (0, 0), whose Boeckx invariant is
    -1 against the input's 1."""
    with pytest.raises(ZooDomainError, match="must be positive"):
        dhomothetic_invariants(Fraction(0), Fraction(0), a)
    params = ("t",)
    with pytest.raises(ZooDomainError, match="must be positive"):
        dhomothetic_invariants(Scalar.zero(params), Scalar.zero(params), Scalar.constant(params, a))


def test_deformation_symbolic_scale():
    params = ("a",)
    a = Scalar.variable(params, "a")
    one = Scalar.one(params)
    kappa = a * a - one  # kappa + a^2 - 1 = 2a^2 - 2: not divisible by a^2
    with pytest.raises(ZooDomainError):
        dhomothetic_invariants(kappa, Scalar.zero(params), a)
    # a numerator that a^2 divides succeeds symbolically
    kappa2 = one - a * a + a * a * a  # kappa + a^2 - 1 = a^3
    k_bar, mu_bar = dhomothetic_invariants(kappa2, Scalar.constant(params, 2) - a - a, a)
    assert k_bar == a
    assert mu_bar == Scalar.zero(params)


def _deformed(m: FrameManifold, s: AlmostContactData, r: Fraction):
    """The D-homothetic deformation by a = r^2, read on the frame.

    With eta' = a eta, xi' = xi/a, phi' = phi and g' = a g + a(a - 1) eta (x) eta,
    the frame E1' = E1/a, E_p' = E_p/r is g'-orthonormal.  Writing E_p' = E_p/s_p
    (s_1 = a, s_p = r otherwise) gives c'_pq^t = c_pq^t s_t/(s_p s_q), while phi,
    xi = E1 and eta = E1 keep their components.
    """
    assert s.xi == m.basis(0) and s.eta == m.basis(0)
    a = r * r
    scale = [a] + [r] * (m.dim - 1)
    pairs = {
        (p, q, t): coeff.scale(scale[t] / (scale[p] * scale[q]))
        for p, q in combinations(range(m.dim), 2)
        for t, coeff in m.sparse_c[p][q]
    }
    d = FrameManifold.from_pairs(m.dim, m.params, pairs)
    return d, AlmostContactData(phi=s.phi, xi=d.basis(0), eta=d.basis(0))


def _nullity_fails(x: Instance, kappa: Scalar, mu: Scalar) -> list[int]:
    """The horizontal p where R(E_p, xi)xi != kappa E_p + mu hE_p."""
    m, r = x.m, x.m.vector_at(x.r.table)
    return [
        p
        for p in range(1, m.dim)
        if r((p, 0, 0)) != m.basis(p).scale(kappa) + column(x.h, p).scale(mu)
    ]


NULLITY_PAIRS = {"t1e4": (0, 0), "kmu3": (Fraction(3, 4), -1), "lambda-1/2": (Fraction(3, 4), 0)}


def _undeformed(name: str) -> tuple[FrameManifold, AlmostContactData]:
    if name == "lambda-1/2":
        entry = make_lambda_family(Fraction(1, 2))
        return entry.manifold, entry.structure
    return load_manifest_file(str(MANIFESTS / f"{name}.json"))


@pytest.mark.parametrize("r", [2, 3], ids=["a=4", "a=9"])
@pytest.mark.parametrize("name", sorted(NULLITY_PAIRS))
def test_deformation_matches_the_deformed_frame(name, r):
    """Tanno's (kappa', mu') is the nullity pair the deformed frame's tensors carry."""
    x = Instance(*_deformed(*_undeformed(name), Fraction(r)))
    assert not x.structural_report.has_failures
    kappa_bar, mu_bar = dhomothetic_invariants(*NULLITY_PAIRS[name], r * r)
    assert _nullity_fails(x, kappa_bar, mu_bar) == []


def test_shifted_mu_numerator_fails_on_the_deformed_frame():
    """mu' = (mu + 2a - 4)/a, the "2c" numerator read with c = a - 1, gives
    mu' = 1 for T1E4 at a = 4; the deformed frame carries 3/2."""
    x = Instance(*_deformed(*_undeformed("t1e4"), Fraction(2)))
    kappa_bar = Scalar.constant((), Fraction(15, 16))
    assert _nullity_fails(x, kappa_bar, Scalar.constant((), Fraction(3, 2))) == []
    assert _nullity_fails(x, kappa_bar, Scalar.constant((), 1)) != []


@pytest.mark.parametrize("n, sign", [(4, 1), (4, -1), (9, 1), (9, -1)])
def test_example_deformation_reaches_the_target(n, sign):
    """The unit tangent sphere bundle T1S^(n+1)(c) is a (c(2 - c), -2c)-space;
    deformed by a = 1 + c with c = (sqrt(n) +/- 1)^2/(n - 1), it becomes
    N((n - 1)/n) with mu = 0 on both branches."""
    c = Fraction((isqrt(n) + sign) ** 2, n - 1)
    kappa_bar, mu_bar = dhomothetic_invariants(c * (2 - c), -2 * c, 1 + c)
    assert kappa_bar == Scalar.constant((), Fraction(n - 1, n))
    assert mu_bar == Scalar.zero(())


below_one = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(1), max_denominator=6
).filter(lambda k: k < 1)
rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
scales = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(5), max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(below_one, rationals, scales)
def test_deformation_keeps_the_boeckx_invariant(kappa, mu, a):
    before = boeckx_invariant(kappa, mu)
    kappa_bar, mu_bar = dhomothetic_invariants(kappa, mu, a)
    after = boeckx_invariant(kappa_bar.constant_value(), mu_bar.constant_value())
    assert (after.square, after.sign) == (before.square, before.sign)


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


def test_invariant_approximation_outside_the_float_range_of_its_operands():
    """approx is read from the exact quantities: an operand outside the float
    range leaves it right, and only an invariant outside that range is a
    domain error."""
    with pytest.raises(ZooDomainError, match="outside the float range"):
        boeckx_invariant(Fraction(0), Fraction(10) ** 400)
    tiny = boeckx_invariant(-Fraction(10) ** 400, Fraction(0))
    assert not tiny.is_exact and tiny.approx == pytest.approx(1e-200, rel=1e-15)
    huge = boeckx_invariant(1 - Fraction(1, 10**400), Fraction(0))
    assert huge.is_exact and huge.value == 10**200
    assert huge.approx == pytest.approx(1e200, rel=1e-15)
    with pytest.raises(ZooDomainError):
        boeckx_invariant(Fraction(2), Fraction(0))


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


def test_abelian_manifest():
    m, s = load_manifest_file(str(MANIFESTS / "abelian3.json"))
    assert m.dim == 3
    assert all(m.bracket_basis(i, j).is_zero() for i in range(3) for j in range(3))
    # the flat curvature forces kappa = 0
    assert Instance(m, s).kappa == Scalar.zero(())


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
