"""Built-in example manifolds and (kappa, mu) bookkeeping utilities.

The centerpiece is a one-parameter three-dimensional family whose frame
brackets are

    [E1, E2] = (1 + lambda) E3,   [E2, E3] = 2 E1,   [E3, E1] = (1 - lambda) E2,

with xi = E1, phi E2 = E3, phi E3 = -E2.  Its tensor h has eigenvalues
(0, lambda, -lambda) and the curvature satisfies the nullity condition with
kappa = 1 - lambda^2; lambda = 0 is Sasakian.  A reference presentation of
this family prints (1 - lambda) for the [E1, E2] coefficient as well, but
that sign is inconsistent with the presentation's own covariant-derivative
table, with h E2 = lambda E2, and with kappa = 1 - lambda^2; the (1 + lambda)
form used here is forced by the Koszul formula and reproduces every
downstream value.  The discrepancy is recorded on the entry's notes.

``make_heisenberg(n)`` gives the Heisenberg group H^(2n+1), Sasakian with
kappa = 1, in every odd dimension.

Bookkeeping utilities (pure rational/symbolic arithmetic, no frames):

- dhomothetic_invariants: the nullity pair after the D-homothetic deformation
  eta' = a eta, xi' = xi/a, phi' = phi, g' = a g + a(a - 1) eta (x) eta, a > 0
  (Tanno, Illinois J. Math. 12, 1968; Blair-Koufogiorgos-Papantoniou,
  Israel J. Math. 91, 1995),
      kappa_bar = (kappa + a^2 - 1)/a^2,   mu_bar = (mu + 2a - 2)/a.
- boeckx_invariant: I = (1 - mu/2)/sqrt(1 - kappa), exact when 1 - kappa is
  a rational square, otherwise returned as (square, sign) plus a flagged
  decimal approximation.  The deformation leaves it unchanged for a > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .contact import AlmostContactData
from .frames import Endomorphism, FrameManifold
from .scalars import RationalLike, Scalar, exact_div

LAMBDA_PARAM = "lambda"


class ZooDomainError(ValueError):
    """An input outside a bookkeeping operation's domain."""


@dataclass(frozen=True)
class ZooEntry:
    """A ready-made frame manifold with its contact structure and metadata."""

    manifold: FrameManifold
    structure: AlmostContactData
    label: str
    expected_kappa: Scalar
    notes: tuple[str, ...] = ()


_BRACKET_NOTE = (
    "bracket [E1,E2] = (1+lambda) E3: a reference presentation of this family "
    "prints (1-lambda) here, which contradicts its own covariant-derivative "
    "table, the h eigenvalues (0, lambda, -lambda), and kappa = 1 - lambda^2; "
    "the (1+lambda) coefficient is the one forced by the Koszul formula"
)


def _lambda_structure(m: FrameManifold) -> AlmostContactData:
    zero, one = m.zero_scalar(), m.one_scalar()
    phi = Endomorphism(
        (
            (zero, zero, zero),
            (zero, zero, -one),
            (zero, one, zero),
        )
    )
    return AlmostContactData(phi=phi, xi=m.basis(0), eta=m.basis(0))


def make_lambda_family(
    lam: RationalLike | None = None, label: str | None = None
) -> ZooEntry:
    """The 3-dimensional family; symbolic when lam is None, else at that value."""
    if lam is None:
        params: tuple[str, ...] = (LAMBDA_PARAM,)
        lam_scalar = Scalar.variable(params, LAMBDA_PARAM)
        value_note = "symbolic lambda"
    else:
        params = ()
        lam_scalar = Scalar.constant(params, Fraction(lam))
        value_note = f"lambda = {Fraction(lam)}"
    one = Scalar.one(params)
    two = Scalar.constant(params, 2)
    m = FrameManifold.from_pairs(
        3,
        params,
        {
            (0, 1, 2): one + lam_scalar,
            (1, 2, 0): two,
            (0, 2, 1): -(one - lam_scalar),
        },
    )
    return ZooEntry(
        manifold=m,
        structure=_lambda_structure(m),
        label=label or "lambda",
        expected_kappa=one - lam_scalar * lam_scalar,
        notes=(value_note, _BRACKET_NOTE),
    )


def make_sasakian3() -> ZooEntry:
    """The lambda = 0 member: a 3-dimensional Sasakian instance (kappa = 1)."""
    return make_lambda_family(0, label="sasakian3")


def make_heisenberg(n: int) -> ZooEntry:
    """The Heisenberg group H^(2n+1) on the frame xi, X_1..X_n, Y_1..Y_n.

    [X_a, Y_a] = 2 xi and every other bracket is zero; phi X_a = Y_a,
    phi Y_a = -X_a, xi = E1 and eta = E1.  Frame order: E1 = xi,
    E(1+a) = X_a, E(1+n+a) = Y_a.  Sasakian, kappa = 1.
    """
    if n < 1:
        raise ZooDomainError(f"H^(2n+1) needs n >= 1, got {n}")
    params: tuple[str, ...] = ()
    dim, two = 2 * n + 1, Scalar.constant(params, 2)
    m = FrameManifold.from_pairs(dim, params, {(a, n + a, 0): two for a in range(1, n + 1)})
    zero, one = m.zero_scalar(), m.one_scalar()
    # column X_a holds phi X_a = Y_a, column Y_a holds phi Y_a = -X_a
    phi = [[zero] * dim for _ in range(dim)]
    for a in range(1, n + 1):
        phi[n + a][a], phi[a][n + a] = one, -one
    return ZooEntry(
        manifold=m,
        structure=AlmostContactData(
            phi=Endomorphism(tuple(tuple(row) for row in phi)), xi=m.basis(0), eta=m.basis(0)
        ),
        label=f"heisenberg{dim}",
        expected_kappa=one,
        notes=(f"Heisenberg group H^{dim}; Sasakian",),
    )


ZOO_LABELS: tuple[str, ...] = ("lambda", "sasakian3")


def zoo_entry(label: str, lam: RationalLike | None = None) -> ZooEntry:
    """Resolve a CLI label; lam applies to the 'lambda' label only."""
    if label == "lambda":
        return make_lambda_family(lam)
    if label == "sasakian3":
        if lam is not None and Fraction(lam) != 0:
            raise ZooDomainError("sasakian3 is the lambda = 0 member; drop --lambda")
        return make_sasakian3()
    raise ZooDomainError(f"unknown zoo label {label!r}; known: {', '.join(ZOO_LABELS)}")


def _as_scalar(value: Scalar | RationalLike, params: tuple[str, ...]) -> Scalar:
    if isinstance(value, Scalar):
        if value.params != params:
            raise ZooDomainError(
                f"mixed parameter tuples {value.params} vs {params}"
            )
        return value
    return Scalar.constant(params, Fraction(value))


def dhomothetic_invariants(
    kappa: Scalar | RationalLike,
    mu: Scalar | RationalLike,
    a: Scalar | RationalLike,
) -> tuple[Scalar, Scalar]:
    """The deformed nullity pair (kappa_bar, mu_bar) under the rescaling a.

    kappa_bar = (kappa + a^2 - 1)/a^2 and mu_bar = (mu + 2a - 2)/a.  A
    constant a must be positive, since g' = a g + a(a - 1) eta (x) eta is no
    metric for a <= 0; a symbolic a is taken as positive.  Division must be
    exact; a symbolic a whose a^2 or a does not divide its numerator raises.
    """
    params: tuple[str, ...] = ()
    for value in (kappa, mu, a):
        if isinstance(value, Scalar):
            params = value.params
            break
    kappa_s = _as_scalar(kappa, params)
    mu_s = _as_scalar(mu, params)
    a_s = _as_scalar(a, params)
    if a_s.is_constant() and a_s.constant_value() <= 0:
        raise ZooDomainError(
            f"deformation constant a must be positive, got {a_s}: "
            "g' = a g + a(a - 1) eta (x) eta is a metric only for a > 0"
        )
    one = Scalar.one(params)
    two = Scalar.constant(params, 2)
    a_squared = a_s * a_s
    kappa_bar = exact_div(kappa_s + a_squared - one, a_squared)
    mu_bar = exact_div(mu_s + two * a_s - two, a_s)
    if kappa_bar is None or mu_bar is None:
        raise ZooDomainError(
            "deformation constant a does not divide the transformed numerator "
            "exactly; supply a rational a or a divisible symbolic one"
        )
    return kappa_bar, mu_bar


@dataclass(frozen=True)
class BoeckxInvariant:
    """I = (1 - mu/2)/sqrt(1 - kappa), exact when the square root is rational.

    is_exact=True: value holds the exact Fraction.  Otherwise value is None
    and the exact content is (square, sign) with square = I^2 and sign the
    sign of 1 - mu/2; approx is a decimal approximation in both cases, only
    trustworthy as an approximation when is_exact is False.
    """

    is_exact: bool
    value: Fraction | None
    square: Fraction
    sign: int
    approx: float


def _near_one(q: Fraction, step: int) -> tuple[float, int]:
    """(float(q / 2^e), e) for the multiple e of ``step`` that brings q / 2^e near 1."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    e -= e % step
    return float(q / Fraction(2) ** e), e


def boeckx_invariant(
    kappa: RationalLike, mu: RationalLike
) -> BoeckxInvariant:
    """The invariant (1 - mu/2)/sqrt(1 - kappa); requires kappa < 1."""
    kappa_f, mu_f = Fraction(kappa), Fraction(mu)
    if kappa_f >= 1:
        raise ZooDomainError(
            f"the invariant needs kappa < 1 (got kappa = {kappa_f}); "
            "kappa = 1 is the Sasakian boundary where it is undefined"
        )
    radicand = 1 - kappa_f
    numerator = 1 - mu_f / 2
    square = numerator * numerator / radicand
    sign = (numerator > 0) - (numerator < 0)
    root_num, root_den = isqrt(radicand.numerator), isqrt(radicand.denominator)
    is_exact = numerator == 0 or (
        root_num * root_num == radicand.numerator and root_den * root_den == radicand.denominator
    )
    # numerator = n 2^a and radicand = r 2^b with n and r near 1 and b even:
    # I = (n / sqrt(r)) 2^(a - b/2) is a float whenever I is in range
    (n, a), (r, b) = _near_one(numerator, 1), _near_one(radicand, 2)
    try:
        approx = math.ldexp(n / math.sqrt(r), a - b // 2)
    except OverflowError:
        raise ZooDomainError(
            "the invariant lies outside the float range, so it has no decimal approximation"
        ) from None
    value = numerator / Fraction(root_num, root_den) if is_exact else None
    return BoeckxInvariant(
        is_exact=is_exact, value=value, square=square, sign=sign, approx=approx
    )
