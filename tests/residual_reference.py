"""Per-tuple residuals of the rows that the engine grades from tables of
nonzero entries: each is a function of the basis indices, evaluated one tuple
at a time with one sum of products per component, as the rows computed them
before they became tables.  ``tests/test_residual_tables.py`` holds every
table, witness and crosscheck to them.  ``detect_kappa`` is the nullity
constant solved one equation at a time by cross-multiplication, as the
engine found it before it became an ``exact_fit``."""

from __future__ import annotations

from itertools import product

from contactframe import Endomorphism, FrameVector, Instance, Scalar
from contactframe.scalars import exact_div
from vector_reference import apply, endomorphism, form


def sparse_vectors(t) -> list:
    """``sparse_vectors(t)[i][j][k]`` holds the pairs (l, T[i][j][k][l]) whose
    component is nonzero, read from the dense view ``components``, so that the
    references stay independent of the tensor's table."""
    return [
        [[[(l, c) for l, c in enumerate(vec) if c.terms] for vec in row] for row in plane]
        for plane in t.components
    ]


def lowered(t):
    """R(E_i, E_j, E_k, E_l) = g(R(E_i, E_j)E_k, E_l) as a function of the
    indices, read from t's table (zero where it names none), since the frame
    is orthonormal."""
    zero = Scalar.zero(t.params)
    return lambda *index: t.table.get(index, zero)


def xi_contraction(x: Instance, xi_at: tuple[int, ...], terms):
    """The sum of c T(X, Y, Z) over the terms (T, c), with xi in the argument
    slots ``xi_at`` and E_i, E_j, ... in the others, as a function of those
    frame indices."""
    dim, params = x.m.dim, x.m.params
    xi = [(r, c) for r, c in enumerate(x.s.xi.components) if c.terms]
    weighted = []
    for t, c in terms:
        vectors = sparse_vectors(t)
        for fill in product(xi, repeat=len(xi_at)):
            weight = c
            for _, xi_r in fill:
                weight = weight * xi_r
            weighted.append((vectors, [r for r, _ in fill], weight))

    def at(*indices: int) -> FrameVector:
        pairs: list[list[tuple[Scalar, Scalar]]] = [[] for _ in range(dim)]
        for vectors, fill, weight in weighted:
            frame, filled = iter(indices), iter(fill)
            i, j, k = (next(filled if slot in xi_at else frame) for slot in range(3))
            for p, v in vectors[i][j][k]:
                pairs[p].append((weight, v))
        return FrameVector(tuple(Scalar.sum_of_products(params, ab) for ab in pairs))

    return at


def z_xi(x: Instance) -> tuple[Endomorphism, ...]:
    """Z(xi, E_i) for every frame index, column k being Z(xi, E_i)E_k."""
    idx = range(x.m.dim)
    at = xi_contraction(x, (0,), ((x.z, x.m.one_scalar()),))
    return tuple(endomorphism([at(i, k) for k in idx]) for i in idx)


def tensor_action(a: Endomorphism, vec: list, j: int, k: int, l: int) -> FrameVector:
    """sum_q A^p_q T_jkl^q - A^q_j T_qkl^p - A^q_k T_jql^p - A^q_l T_jkq^p, T
    given by its ``sparse_vectors``."""
    cols = a.sparse_columns
    pairs: list[list[tuple[Scalar, Scalar]]] = [[] for _ in range(a.dim)]
    for q, t_q in vec[j][k][l]:
        for p, a_pq in cols[q]:
            pairs[p].append((a_pq, t_q))
    for q, a_q in cols[j]:
        for p, t_p in vec[q][k][l]:
            pairs[p].append((-a_q, t_p))
    for q, a_q in cols[k]:
        for p, t_p in vec[j][q][l]:
            pairs[p].append((-a_q, t_p))
    for q, a_q in cols[l]:
        for p, t_p in vec[j][k][q]:
            pairs[p].append((-a_q, t_p))
    return FrameVector(tuple(Scalar.sum_of_products(a.params, ps) for ps in pairs))


def form_action(a: Endomorphism, w, j: int, k: int) -> Scalar:
    """(A.w)(E_j, E_k) = w(A E_j, E_k) + w(E_j, A E_k)."""
    cols, wc = a.sparse_columns, w.components
    return Scalar.sum_of_products(
        wc[0][0].params,
        [(a_q, wc[q][k]) for q, a_q in cols[j]] + [(wc[j][q], a_q) for q, a_q in cols[k]],
    )


def curvature_defect(x: Instance):
    """R(E_i, E_j)E_k of the torsionful connection minus every term of its
    closed form but the final bracket, as a function of (i, j, k)."""
    m = x.m
    one, minus_one, minus_kappa = m.one_scalar(), -m.one_scalar(), -x.kappa
    curv, r, r3 = (sparse_vectors(t) for t in (x.pkg.curv, x.r, x.templates[2]))
    v = [[(p, c) for p, c in enumerate(w.components) if c.terms] for w in x.phi_x_plus_hx]
    xh_phi = [[m.inner(xh, phi) for phi in x.s.phi.columns] for xh in x.x_plus_hx]

    def defect(i: int, j: int, k: int) -> FrameVector:
        pairs: list[list[tuple[Scalar, Scalar]]] = [[] for _ in range(m.dim)]
        for p, c in curv[i][j][k]:
            pairs[p].append((c, one))
        for p, c in r[i][j][k]:
            pairs[p].append((c, minus_one))
        for p, c in r3[i][j][k]:
            pairs[p].append((c, minus_kappa))
        for p, c in v[j]:
            pairs[p].append((-xh_phi[i][k], c))
        for p, c in v[i]:
            pairs[p].append((xh_phi[j][k], c))
        return FrameVector(tuple(Scalar.sum_of_products(m.params, ab) for ab in pairs))

    return defect


def closed_form(x: Instance, last_sign: int):
    """R(X1, X2)X3 minus the closed form whose final bracket is
    g(X1, phi X2 + phi h X2) + last_sign g(X2, phi X1 + phi h X1)."""
    v, phi, defect = x.phi_x_plus_hx, x.s.phi.columns, curvature_defect(x)

    def residual(i: int, j: int, k: int) -> FrameVector:
        bracket = v[j].components[i] + v[i].components[j].scale(last_sign)
        return defect(i, j, k) - phi[k].scale(bracket)

    return residual


def _phi_tables(x: Instance):
    phi = [v.components for v in x.s.phi.columns]
    two_phi = [[c.scale(2) for c in row] for row in phi]
    minus_two_phi = [[c.scale(-2) for c in row] for row in phi]
    return two_phi, minus_two_phi, [v.components for v in x.phi_h.columns]


def pair_interchange(x: Instance):
    m, low, one = x.m, lowered(x.pkg.curv), x.m.one_scalar()
    two_phi, minus_two_phi, phi_h = _phi_tables(x)
    h_phi = [[m.inner(h, phi) for phi in x.s.phi.columns] for h in x.h.columns]

    def residual(i: int, j: int, k: int, l: int) -> Scalar:
        return Scalar.sum_of_products(
            m.params,
            (
                (low(i, j, k, l), one),
                (low(k, l, i, j), one),
                (two_phi[i][l], h_phi[j][k]),
                (minus_two_phi[k][j], phi_h[i][l]),
                (h_phi[i][k], minus_two_phi[l][j]),
                (two_phi[k][i], phi_h[j][l]),
                (phi_h[l][k], minus_two_phi[i][j]),
            ),
        )

    return residual


def cyclic_sum(x: Instance):
    m, curv, one = x.m, x.pkg.curv.components, x.m.one_scalar()
    two_phi, minus_two_phi, phi_h = _phi_tables(x)

    def residual(i: int, j: int, k: int) -> FrameVector:
        return FrameVector(
            tuple(
                Scalar.sum_of_products(
                    m.params,
                    (
                        (curv[i][j][k][p], one),
                        (curv[j][k][i][p], one),
                        (curv[k][i][j][p], one),
                        (phi_h[k][p], minus_two_phi[i][j]),
                        (phi_h[j][p], two_phi[i][k]),
                        (phi_h[i][p], minus_two_phi[j][k]),
                    ),
                )
                for p in range(m.dim)
            )
        )

    return residual


def first_pair_antisymmetry(x: Instance):
    low = lowered(x.pkg.curv)
    return lambda i, j, k, l: low(i, j, k, l) + low(j, i, k, l)


def last_pair_antisymmetry(x: Instance):
    low = lowered(x.pkg.curv)
    return lambda i, j, k, l: low(i, j, k, l) + low(i, j, l, k)


def eta_contraction(x: Instance, model):
    """eta(Z(E_i, E_j)E_k) - K eta(R1 at the slots model(i, j, k))."""
    m, z, r1, eta = x.m, x.z, x.templates[0], x.s.eta

    def vector(t, i: int, j: int, k: int) -> FrameVector:
        """T(E_i, E_j)E_k, read from the dense view ``components``."""
        return FrameVector(t.components[i][j][k])

    return lambda i, j, k: m.inner(eta, vector(z, i, j, k)) - z.K * m.inner(
        eta, vector(r1, *model(i, j, k))
    )


def phi_square_variant(x: Instance):
    """Z(E_i, xi)xi - K phi^2 E_i."""
    z, phi2 = x.z, x.s.phi.square
    z_xi_xi = xi_contraction(x, (1, 2), ((z, x.m.one_scalar()),))
    return lambda i: z_xi_xi(i) - phi2.column(i).scale(z.K)


def phi_flatness(x: Instance):
    """g(Z(phi E_i, phi E_j)phi E_k, phi E_l), through the trilinear apply."""
    m, z, phi_e = x.m, x.z, x.s.phi.columns
    applied: dict[tuple[int, int, int], FrameVector] = {}

    def residual(i: int, j: int, k: int, l: int) -> Scalar:
        if (i, j, k) not in applied:
            applied[i, j, k] = apply(z, phi_e[i], phi_e[j], phi_e[k])
        return m.inner(applied[i, j, k], phi_e[l])

    return residual


def ricci_action(x: Instance):
    a, ric = z_xi(x), x.pkg.ricci
    return lambda i, j, k: form_action(a[i], ric, j, k)


def ricci_action_slice(x: Instance, sign: int):
    """(Z(xi, E_i).ricci)(E_j, xi) + sign K ricci(E_i, E_j)."""
    a, ric, params = z_xi(x), x.pkg.ricci, x.m.params
    xi = [(r, c) for r, c in enumerate(x.s.xi.components) if c.terms]
    return lambda i, j: Scalar.sum_of_products(
        params, [(c, form_action(a[i], ric, j, r)) for r, c in xi]
    ) + (x.z.K * ric.components[i][j]).scale(sign)


def self_action(x: Instance):
    a, z = z_xi(x), sparse_vectors(x.z)
    return lambda i, j, k, l: tensor_action(a[i], z, j, k, l)


def detect_kappa(m, s, r) -> Scalar | None:
    """Solve R(E_i, E_j)xi = kappa (eta(E_j)E_i - eta(E_i)E_j) component by
    component: the first equation with a nonzero right-hand side fixes
    kappa = num/den, every later one must agree with it cross-multiplied, and
    an equation 0 * kappa = nonzero is inconsistent.  None when no equation
    determines kappa, when two disagree, or when num/den is not polynomial."""
    num: Scalar | None = None
    den: Scalar | None = None
    idx, zero, eta = range(m.dim), m.zero_scalar(), s.eta.components
    xi = [(k, xk) for k, xk in enumerate(s.xi.components) if xk.terms]
    for i, j in product(idx, repeat=2):
        r_ij = r.components[i][j]
        lhs = [Scalar.sum_of_products(m.params, ((xk, r_ij[k][p]) for k, xk in xi)) for p in idx]
        rhs = [zero] * m.dim
        rhs[i] = rhs[i] + eta[j]
        rhs[j] = rhs[j] - eta[i]
        for a, b in zip(lhs, rhs):
            if b.is_zero():
                if not a.is_zero():
                    return None
            elif num is None:
                num, den = a, b
            elif not (a * den - num * b).is_zero():
                return None
    if num is None or den is None:
        return None
    return exact_div(num, den)


# -- the scalar residuals of one or two frame vectors ------------------------------


def _eta_derivative(conn, eta: FrameVector):
    """(nabla_{E_i} eta)(E_j) = -eta(nabla_{E_i} E_j), one sum of products."""
    eta_k = eta.components
    return lambda i, j: -Scalar.sum_of_products(
        conn.params, ((eta_k[k], g) for k, g in conn.entries(i, j))
    )


def eta_covariant_derivative(x: Instance):
    """(nabla_X eta)Y - g(X + hX, phi Y) of the Levi-Civita connection."""
    d = _eta_derivative(x.lc, x.s.eta)
    return lambda i, j: d(i, j) - x.xh_phi[i][j]


def eta_parallel(x: Instance):
    """(nabla_X eta)Y of the torsionful connection."""
    return _eta_derivative(x.pkg.conn, x.s.eta)


def ricci_closed_form(x: Instance):
    """S - 2(n-1) g - 2(n-1) g(h., .) - [2n kappa - 2(n-1)] eta (x) eta."""
    m, eta = x.m, x.s.eta.components
    two_n_minus_2 = m.constant(2 * (m.n - 1))
    eta_coeff = m.constant(2 * m.n) * x.kappa - two_n_minus_2
    return lambda i, j: (
        x.ricci.components[i][j]
        - two_n_minus_2 * m.inner_basis(i, j)
        - two_n_minus_2 * x.h.matrix[j][i]
        - eta_coeff * eta[i] * eta[j]
    )


def xi_values(x: Instance, omega, c: Scalar):
    """S(E_i, xi) - c eta_i at the index (i,) and S(xi, xi) - c at (), S
    being the form omega."""
    m, xi, eta = x.m, x.s.xi, x.s.eta.components

    def residual(*index: int) -> Scalar:
        if index:
            (i,) = index
            return form(omega, m.basis(i), xi) - c * eta[i]
        return form(omega, xi, xi) - c

    return residual


def ricci_xi_values(x: Instance):
    return xi_values(x, x.ricci, x.m.constant(2 * x.m.n) * x.kappa)


def ricci_xi_degenerate(x: Instance):
    return xi_values(x, x.pkg.ricci, x.m.zero_scalar())


def gtw_ricci_closed_form(x: Instance):
    """ric - S - 2 g + (2n kappa + 2) eta (x) eta, ric the torsionful Ricci form."""
    m, eta, ric = x.m, x.s.eta.components, x.pkg.ricci.components
    two_nk_plus_2 = x.kappa.scale(2 * m.n) + m.constant(2)
    return lambda i, j: (
        ric[i][j]
        - x.ricci.components[i][j]
        - m.inner_basis(i, j).scale(2)
        + two_nk_plus_2 * eta[i] * eta[j]
    )


def ricci_alternative_form(x: Instance):
    """ric - 2n g - 2(n-1) g(h., .) + 2n eta (x) eta."""
    m, eta, ric, n = x.m, x.s.eta.components, x.pkg.ricci.components, x.m.n
    return lambda i, j: (
        ric[i][j]
        - m.inner_basis(i, j).scale(2 * n)
        - x.h.matrix[j][i].scale(2 * (n - 1))
        + (eta[i] * eta[j]).scale(2 * n)
    )


def ricci_symmetry(x: Instance):
    ric = x.pkg.ricci.components
    return lambda i, j: ric[i][j] - ric[j][i]
