"""Almost-contact validation, h, nullity-constant detection, classification."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import residual_reference as ref
import vector_reference as vr
from contactframe import (
    AlmostContactData,
    Instance,
    classify,
    detect_kappa,
    load_manifest,
    load_manifest_file,
    make_heisenberg,
    make_lambda_family,
    validate_acm,
)
from contactframe.frames import Endomorphism, FrameManifold, FrameVector
from contactframe.scalars import Scalar
from test_riemann_oracle import frames, small

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def test_lambda_family_satisfies_every_axiom(fam):
    report = validate_acm(fam.m, fam.s)
    assert not report.has_failures
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["acm.contact_condition"] == "holds"
    # the opposite-slot contact form disagrees on this family; recorded as data
    ref = report.by_name("acm.contact_condition_reference_form")
    assert ref.status == "not_applicable"
    assert ref.witness["indices"] == [2, 3]
    assert ref.witness["residual"] == "-2"


def test_h_eigenvalues(fam):
    lam = Scalar.variable(fam.m.params, "lambda")
    h = fam.h
    assert (h.apply(fam.m.basis(0))).is_zero()
    assert (h.apply(fam.m.basis(1)) - fam.m.basis(1).scale(lam)).is_zero()
    assert (h.apply(fam.m.basis(2)) + fam.m.basis(2).scale(lam)).is_zero()


def test_detect_kappa_symbolic(fam):
    lam = Scalar.variable(fam.m.params, "lambda")
    one = Scalar.one(fam.m.params)
    assert fam.kappa == one - lam * lam


def test_sasakian_member(fam0):
    cls = classify(fam0.m, fam0.s, fam0.lc, fam0.r)
    assert cls.is_contact_metric
    assert cls.is_K_contact
    assert cls.is_Sasakian
    assert str(cls.kappa) == "1"
    assert fam0.h.is_zero()


def test_generic_member_is_not_sasakian(fam):
    cls = classify(fam.m, fam.s, fam.lc, fam.r)
    assert cls.is_contact_metric
    assert not cls.is_K_contact
    assert not cls.is_Sasakian


def test_abelian_fails_contact_condition_but_kappa_zero():
    m, s = load_manifest_file(str(MANIFESTS / "abelian3.json"))
    report = validate_acm(m, s)
    assert report.has_failures
    assert report.by_name("acm.contact_condition").status == "fails"
    # the axioms that do not involve brackets still hold
    assert report.by_name("acm.phi_square").status == "holds"
    kappa = Instance(m, s).kappa
    # flat curvature forces kappa = 0 through the eta-degenerate equations
    assert kappa is not None and kappa.is_zero()


def test_relabel_invariance():
    """Permuting the frame (F1,F2,F3) = (E1,E3,E2) with matching phi flips

    nothing substantive: kappa and the h eigenvalue set are unchanged."""
    params = ("lambda",)
    lam = Scalar.variable(params, "lambda")
    one = Scalar.one(params)
    two = Scalar.constant(params, 2)
    # brackets in the relabeled frame: [F1,F2] = -(1-lambda) F3,
    # [F2,F3] = -2 F1, [F1,F3] = (1+lambda) F2
    m = FrameManifold.from_pairs(
        3,
        params,
        {
            (0, 1, 2): -(one - lam),
            (1, 2, 0): -two,
            (0, 2, 1): one + lam,
        },
    )
    zero = m.zero_scalar()
    sone = m.one_scalar()
    # phi' F2 = -F3, phi' F3 = F2 keeps the fundamental 2-form aligned with
    # the relabeled d eta
    phi = Endomorphism(((zero, zero, zero), (zero, zero, sone), (zero, -sone, zero)))
    s = AlmostContactData(phi=phi, xi=m.basis(0), eta=m.basis(0))
    report = validate_acm(m, s)
    assert not report.has_failures
    x = Instance(m, s)
    assert x.kappa == one - lam * lam
    h = x.h
    assert h.apply(m.basis(0)).is_zero()
    assert (h.apply(m.basis(1)) + m.basis(1).scale(lam)).is_zero()
    assert (h.apply(m.basis(2)) - m.basis(2).scale(lam)).is_zero()


def test_h_report_grades_a_broken_structure():
    """A phi that is not skew against the brackets breaks the h laws, which
    the structural report grades after frame.* and acm.*."""
    params = ()
    m = FrameManifold.from_pairs(3, params, {(0, 1, 2): Scalar.one(params)})
    zero, one = m.zero_scalar(), m.one_scalar()
    # phi E1 = E2 (so phi does not kill xi and h-symmetry degrades)
    phi = Endomorphism(((zero, zero, zero), (one, zero, zero), (zero, zero, zero)))
    s = AlmostContactData(phi=phi, xi=m.basis(0), eta=m.basis(0))
    checks = Instance(m, s).structural_report.checks
    h_laws = [c for c in checks if c.name.startswith("acm.h_")]
    assert checks[-len(h_laws) :] == h_laws
    failing = [c.name for c in h_laws if c.status == "fails"]
    assert failing == ["acm.h_symmetric", "acm.h_kills_xi"]


def test_detect_kappa_none_when_no_single_constant_fits():
    """A frame whose curvature is not eta-degenerate in the nullity shape."""
    params = ()
    one = Scalar.one(params)
    # [E1,E2] = E3, [E2,E3] = E1, [E1,E3] = -E2 is so(3); R(X,Y)xi has the
    # nullity shape with kappa = 1/4 for xi = E1...
    m = FrameManifold.from_pairs(
        3, params, {(0, 1, 2): one, (1, 2, 0): one, (0, 2, 1): -one}
    )
    zero = m.zero_scalar()
    sone = m.one_scalar()
    phi = Endomorphism(((zero, zero, zero), (zero, zero, -sone), (zero, sone, zero)))
    s = AlmostContactData(phi=phi, xi=m.basis(0), eta=m.basis(0))
    kappa = Instance(m, s).kappa
    assert kappa is not None
    assert kappa == m.constant(Fraction(1, 4))
    # ...but when the distinguished direction is transverse to the center of
    # a Heisenberg frame, R(X, Y)xi escapes the nullity shape entirely and
    # the detector reports None instead of inventing a constant
    m2 = FrameManifold.from_pairs(3, params, {(0, 1, 2): one})
    s2 = AlmostContactData(phi=phi, xi=m2.basis(0), eta=m2.basis(0))
    assert Instance(m2, s2).kappa is None


def test_kappa_is_none_when_every_equation_reads_zero():
    """kappa is free, so not detected, when R(X, Y)xi = kappa (eta(Y)X -
    eta(X)Y) reads 0 = 0 throughout: in dimension 1, and when eta = 0 and
    R(., .)xi = 0."""
    line = {
        "dimension": 1,
        "parameters": [],
        "structure_constants": [],
        "contact": {"xi": ["1"], "eta": ["1"], "phi": [["0"]]},
    }
    assert Instance(*load_manifest(line)).kappa is None
    m, abelian = load_manifest_file(str(MANIFESTS / "abelian3.json"))
    xi = m.basis(0)
    s = AlmostContactData(phi=abelian.phi, xi=xi, eta=xi.scale(0))
    assert Instance(m, s).kappa is None


def _kappa_cases():
    cases = {name.name: load_manifest_file(str(name)) for name in sorted(MANIFESTS.glob("*.json"))}
    for n in (1, 2, 3, 4):
        entry = make_heisenberg(n)
        cases[entry.label] = (entry.manifold, entry.structure)
    for lam in (None, 0, Fraction(1, 2), 3, Fraction(-2, 7)):
        entry = make_lambda_family(lam)
        cases[f"lambda={lam}"] = (entry.manifold, entry.structure)
    return cases


@pytest.mark.parametrize("name, ms", _kappa_cases().items())
def test_detect_kappa_matches_the_cross_multiplication(name, ms):
    m, s = ms
    r = Instance(m, s).r
    assert detect_kappa(m, s, r) == ref.detect_kappa(m, s, r)


def _unit_or_drawn(draw, m: FrameManifold) -> FrameVector:
    """E_1, or a vector of small constant components."""
    if draw(st.booleans()):
        return m.basis(0)
    values = st.sampled_from((-1, 0, 0, 1, 2))
    return FrameVector(tuple(m.constant(draw(values)) for _ in range(m.dim)))


@st.composite
def milnor_frames(draw):
    """[E1, E2] = a E3, [E2, E3] = b E1, [E3, E1] = c E2, the shape of the
    lambda family, on which kappa is often determined."""
    params = ()
    a, b, c = (Scalar.constant(params, draw(small)) for _ in range(3))
    return FrameManifold.from_pairs(3, params, {(0, 1, 2): a, (1, 2, 0): b, (0, 2, 1): -c})


@st.composite
def structures(draw):
    m = draw(st.one_of(frames(), milnor_frames()))
    xi = _unit_or_drawn(draw, m)
    eta = xi if draw(st.booleans()) else _unit_or_drawn(draw, m)
    zero = m.zero_scalar()
    phi = Endomorphism(tuple((zero,) * m.dim for _ in range(m.dim)))
    return m, AlmostContactData(phi=phi, xi=xi, eta=eta)


@settings(max_examples=60, deadline=None)
@given(structures())
def test_detect_kappa_matches_the_cross_multiplication_on_drawn_frames(ms):
    m, s = ms
    r = Instance(m, s).r
    assert detect_kappa(m, s, r) == ref.detect_kappa(m, s, r)


BUMPS = st.sampled_from((-1, 1, 2, Fraction(1, 2), -3))
# zero weighs most, so a drawn frame is dense but not full
ENTRY = st.sampled_from((0, 0, 0, -1, 1, 2, Fraction(1, 2)))


@st.composite
def perturbed_heisenberg(draw):
    """H^3 or H^5 with a few entries of phi, xi and eta moved by a constant."""
    entry = make_heisenberg(draw(st.sampled_from([1, 2])))
    m, s = entry.manifold, entry.structure
    at = st.sampled_from(range(m.dim))
    phi = [list(row) for row in s.phi.matrix]
    for p, j, v in draw(st.lists(st.tuples(at, at, BUMPS), max_size=3)):
        phi[p][j] = phi[p][j] + m.constant(v)
    vectors = []
    for vector in (s.xi, s.eta):
        components = list(vector.components)
        for k, v in draw(st.lists(st.tuples(at, BUMPS), max_size=2)):
            components[k] = components[k] + m.constant(v)
        vectors.append(FrameVector(tuple(components)))
    return m, AlmostContactData(Endomorphism(tuple(map(tuple, phi))), *vectors)


@st.composite
def dense_structures(draw):
    """Dense drawn brackets in dimension 3 or 5, antisymmetric through
    ``from_pairs`` or drawn whole, with dense drawn phi, xi and eta."""
    dim, params = draw(st.sampled_from([3, 5])), ()
    idx = range(dim)

    def entry() -> Scalar:
        return Scalar.constant(params, draw(ENTRY))

    if draw(st.booleans()):
        m = FrameManifold.from_pairs(
            dim, params, {(i, j, k): entry() for i in idx for j in idx if i < j for k in idx}
        )
    else:
        planes = tuple(tuple(tuple(entry() for _ in idx) for _ in idx) for _ in idx)
        m = FrameManifold(dim, params, planes)
    phi = Endomorphism(tuple(tuple(entry() for _ in idx) for _ in idx))
    xi, eta = (FrameVector(tuple(entry() for _ in idx)) for _ in range(2))
    return m, AlmostContactData(phi, xi, eta)


@settings(max_examples=150, deadline=None)
@given(st.one_of(perturbed_heisenberg(), dense_structures()))
def test_structural_witnesses_are_the_dense_scans(ms):
    """The bracket antisymmetry, every acm.* matrix law and both h laws give
    the witness of a dense scan of every basis tuple in scan order
    (``vector_reference.structural_witnesses``), although the engine reads
    residual tables or visits only the tuples some nonzero entry names."""
    m, s = ms
    x = Instance(m, s)
    report = x.structural_report
    for name, want in vr.structural_witnesses(m, s, x.h).items():
        assert report.by_name(name).witness == want, name


@st.composite
def dense_frames_over_t(draw):
    """Dense drawn brackets in dimension 5 or 7 through ``from_pairs``, with
    dense drawn phi, xi and eta, each entry a constant or, over the parameter
    t, linear in t."""
    dim, params = draw(st.sampled_from([5, 7])), draw(st.sampled_from([(), ("t",)]))
    idx = range(dim)
    t = Scalar.variable(params, "t") if params else Scalar.zero(params)

    def entry() -> Scalar:
        return Scalar.constant(params, draw(ENTRY)) + t.scale(draw(ENTRY))

    m = FrameManifold.from_pairs(
        dim, params, {(i, j, k): entry() for i in idx for j in idx if i < j for k in idx}
    )
    phi = Endomorphism(tuple(tuple(entry() for _ in idx) for _ in idx))
    xi, eta = (FrameVector(tuple(entry() for _ in idx)) for _ in range(2))
    return m, AlmostContactData(phi, xi, eta)


def _lambda_symbolic():
    entry = make_lambda_family(None)
    return entry.manifold, entry.structure


@settings(max_examples=60, deadline=None)
@given(st.one_of(perturbed_heisenberg(), dense_frames_over_t(), st.builds(_lambda_symbolic)))
def test_h_is_half_the_lie_derivative_of_phi(ms):
    """``Instance.h``, built as L_xi(1/2 phi), has the entries of the dense
    1/2 L_xi phi (``vector_reference.contact_h``), in the key order of
    L_xi phi halved after the derivative."""
    m, s = ms
    h = Instance(m, s).h
    halved_after = m.lie_derive_endo(s.xi, s.phi).scale(Fraction(1, 2))
    assert list(h.table.items()) == list(halved_after.table.items())
    assert h.table == vr.nonzero(vr.contact_h(m, s))
