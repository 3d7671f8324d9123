"""Independent sympy implementation of the frame/contact/curvature pipeline.

This module exists so the main engine never has to be trusted on its own:
every derived number frozen into the test-suite literals was produced here
first, with sympy doing the arithmetic.  The engine (pure Fraction-based
polynomials) and this oracle share only the mathematical definitions.

Run as a script to dump the full golden table for the lambda family:

    python tests/sympy_oracle.py
"""

from __future__ import annotations

import itertools

import sympy as sp

lam = sp.Symbol("lam")

DIM = 3
IDX = range(DIM)


def bracket_constants(l=lam):
    """c[i][j][k]: [E_i, E_j] = sum_k c[i][j][k] E_k (0-based)."""
    c = [[[sp.Integer(0)] * DIM for _ in IDX] for _ in IDX]

    def put(i, j, k, val):
        c[i][j][k] = sp.sympify(val)
        c[j][i][k] = -sp.sympify(val)

    put(0, 1, 2, 1 + l)   # [E1,E2] = (1+lam) E3
    put(1, 2, 0, 2)       # [E2,E3] = 2 E1
    put(2, 0, 1, 1 - l)   # [E3,E1] = (1-lam) E2
    return c


def phi_matrix():
    # phi E1 = 0, phi E2 = E3, phi E3 = -E2; column j = image of E_j
    return sp.Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]])


XI = sp.Matrix([1, 0, 0])
ETA = sp.Matrix([1, 0, 0])  # dual covector components; metric = identity


def bracket(c, x, y):
    """Bracket of constant-coefficient vectors."""
    out = sp.zeros(DIM, 1)
    for i, j, k in itertools.product(IDX, IDX, IDX):
        out[k] += x[i] * y[j] * c[i][j][k]
    return sp.simplify(out)


def basis(i):
    v = sp.zeros(DIM, 1)
    v[i] = 1
    return v


def lie_derive_endo(c, xi, a_mat):
    """(L_xi A) columnwise: [xi, A E_j] - A [xi, E_j]."""
    cols = []
    for j in IDX:
        cols.append(bracket(c, xi, a_mat[:, j]) - a_mat * bracket(c, xi, basis(j)))
    return sp.Matrix.hstack(*cols)


def koszul(c):
    """Gamma[i][j][k]: nabla_{E_i} E_j = sum_k Gamma[i][j][k] E_k."""
    g = [[[sp.Integer(0)] * DIM for _ in IDX] for _ in IDX]
    for i, j, k in itertools.product(IDX, IDX, IDX):
        g[i][j][k] = sp.Rational(1, 2) * (c[i][j][k] - c[j][k][i] + c[k][i][j])
    return g


def nabla_vec(gamma, i, v):
    """nabla_{E_i} v for constant-coefficient v."""
    out = sp.zeros(DIM, 1)
    for m in IDX:
        for k in IDX:
            out[k] += v[m] * gamma[i][m][k]
    return out


def riemann(gamma, c):
    """R[i][j][k] as a vector: R(E_i,E_j)E_k."""
    r = [[[sp.zeros(DIM, 1) for _ in IDX] for _ in IDX] for _ in IDX]
    for i, j, k in itertools.product(IDX, IDX, IDX):
        acc = sp.zeros(DIM, 1)
        for m in IDX:
            for q in IDX:
                acc[q] += gamma[j][k][m] * gamma[i][m][q]
                acc[q] -= gamma[i][k][m] * gamma[j][m][q]
            acc += -c[i][j][m] * sp.Matrix([gamma[m][k][q] for q in IDX])
        r[i][j][k] = sp.expand(acc)
    return r


def ricci(r):
    s = sp.zeros(DIM, DIM)
    for j, l_ in itertools.product(IDX, IDX):
        s[j, l_] = sp.expand(sum(r[j][i][i][l_] for i in IDX))
    return s


def gtw_gamma(gamma, phi, h):
    """GTW connection coefficients from the defining displacement formula."""
    gt = [[[sp.Integer(0)] * DIM for _ in IDX] for _ in IDX]
    for i, j in itertools.product(IDX, IDX):
        ei, ej = basis(i), basis(j)
        disp = (
            ((ei + h * ei).T * (phi * ej))[0] * XI
            + ETA.dot(ei) * (phi * ej)
            + ETA.dot(ej) * (phi * (h * ei + ei))
        )
        for k in IDX:
            gt[i][j][k] = sp.expand(gamma[i][j][k] + disp[k])
    return gt


def torsion(gt, c):
    t = [[sp.zeros(DIM, 1) for _ in IDX] for _ in IDX]
    for i, j in itertools.product(IDX, IDX):
        for k in IDX:
            t[i][j][k] = sp.expand(gt[i][j][k] - gt[j][i][k] - c[i][j][k])
    return t


def concircular(r_gt, n):
    k_const = sp.Rational(-2 * n, 2 * n + 1)
    z = [[[sp.zeros(DIM, 1) for _ in IDX] for _ in IDX] for _ in IDX]
    for i, j, k in itertools.product(IDX, IDX, IDX):
        corr = sp.zeros(DIM, 1)
        if j == k:
            corr[i] += 1
        if i == k:
            corr[j] -= 1
        z[i][j][k] = sp.expand(r_gt[i][j][k] + k_const * corr)
    return z, k_const


def z_endo(z, i, j):
    """Z(E_i, E_j) as a matrix (columns = images of basis vectors)."""
    return sp.Matrix.hstack(*[z[i][j][k] for k in IDX])


def derivation_on_tensor(a_mat, z):
    """(A . Z)(E_j,E_k)E_l per the derivation action with all-minus insertions."""
    out = {}
    for j, k, l_ in itertools.product(IDX, IDX, IDX):
        val = a_mat * z[j][k][l_]
        for m in IDX:
            val -= a_mat[m, j] * z[m][k][l_]
            val -= a_mat[m, k] * z[j][m][l_]
            val -= a_mat[m, l_] * z[j][k][m]
        out[(j, k, l_)] = sp.expand(val)
    return out


def derivation_on_form(a_mat, s_mat):
    """(A . S)(E_j,E_k) with all-plus insertions (adopted convention)."""
    out = sp.zeros(DIM, DIM)
    for j, k in itertools.product(IDX, IDX):
        val = sp.Integer(0)
        for m in IDX:
            val += a_mat[m, j] * s_mat[m, k]
            val += a_mat[m, k] * s_mat[j, m]
        out[j, k] = sp.expand(val)
    return out


def space_form_templates(phi):
    """R1, R2, R3 of the generalized Sasakian space-form template, each as
    t[i][j][k] = R_a(E_i, E_j)E_k:

        R1(X, Y)Z = g(Y, Z)X - g(X, Z)Y
        R2(X, Y)Z = g(X, phi Z)phi Y - g(Y, phi Z)phi X + 2 g(X, phi Y)phi Z
        R3(X, Y)Z = eta(X)eta(Z)Y - eta(Y)eta(Z)X + g(X, Z)eta(Y)xi - g(Y, Z)eta(X)xi
    """
    r1, r2, r3 = ([[[None] * DIM for _ in IDX] for _ in IDX] for _ in range(3))
    for i, j, k in itertools.product(IDX, IDX, IDX):
        ei, ej, ek = basis(i), basis(j), basis(k)
        r1[i][j][k] = (ej.dot(ek)) * ei - (ei.dot(ek)) * ej
        r2[i][j][k] = (
            (ei.dot(phi * ek)) * (phi * ej)
            - (ej.dot(phi * ek)) * (phi * ei)
            + 2 * (ei.dot(phi * ej)) * (phi * ek)
        )
        r3[i][j][k] = (
            ETA[i] * ETA[k] * ej
            - ETA[j] * ETA[k] * ei
            + (ei.dot(ek)) * ETA[j] * XI
            - (ej.dot(ek)) * ETA[i] * XI
        )
    return r1, r2, r3


def space_form_equations(phi, r_gt, coeffs):
    """Components of F1 R1 + F2 R2 + F3 R3 - R over every basis triple; the
    coefficients solve the template exactly when every entry is zero.
    """
    f1, f2, f3 = coeffs
    r1, r2, r3 = space_form_templates(phi)
    eqs = []
    for i, j, k in itertools.product(IDX, IDX, IDX):
        g1, g2, g3 = r1[i][j][k], r2[i][j][k], r3[i][j][k]
        for q in IDX:
            eqs.append(sp.expand(f1 * g1[q] + f2 * g2[q] + f3 * g3[q] - r_gt[i][j][k][q]))
    return eqs


def build_all(l=lam):
    c = bracket_constants(l)
    phi = phi_matrix()
    gamma = koszul(c)
    h = sp.Rational(1, 2) * lie_derive_endo(c, XI, phi)
    r = riemann(gamma, c)
    s = ricci(r)
    gt = gtw_gamma(gamma, phi, h)
    r_gt = riemann(gt, c)
    s_gt = ricci(r_gt)
    z, k_const = concircular(r_gt, n=1)
    return {
        "c": c, "phi": phi, "gamma": gamma, "h": h, "r": r, "s": s,
        "gt": gt, "r_gt": r_gt, "s_gt": s_gt, "z": z, "k_const": k_const,
        "templates": space_form_templates(phi),
    }


def main():
    d = build_all()
    c, phi, gamma, h = d["c"], d["phi"], d["gamma"], d["h"]
    r, s, gt, r_gt, s_gt = d["r"], d["s"], d["gt"], d["r_gt"], d["s_gt"]
    z, k_const = d["z"], d["k_const"]

    def vec_str(v):
        parts = []
        for k in IDX:
            e = sp.simplify(v[k])
            if e != 0:
                parts.append(f"({e})*E{k+1}")
        return " + ".join(parts) if parts else "0"

    print("== Levi-Civita table (nonzero) ==")
    for i, j in itertools.product(IDX, IDX):
        v = sp.Matrix([gamma[i][j][k] for k in IDX])
        if any(e != 0 for e in v):
            print(f"  nabla_E{i+1} E{j+1} = {vec_str(v)}")

    print("== h ==")
    sp.pprint(h)

    print("== curvature samples ==")
    print("  R(E2,E1)E1 =", vec_str(r[1][0][0]))
    print("  R(E2,E3)E3 =", vec_str(r[1][2][2]))
    print("  R(E2,E3)E2 =", vec_str(r[1][2][1]))
    print("  R(E1,E2)E1 =", vec_str(r[0][1][0]))

    print("== nullity constant ==")
    # solve R(E_i,E_j)xi = kappa (eta(E_j)E_i - eta(E_i)E_j) componentwise
    kappa = sp.Symbol("kappa")
    eqs = []
    for i, j in itertools.product(IDX, IDX):
        lhs = r[i][j][0]
        rhs = kappa * (ETA[j] * basis(i) - ETA[i] * basis(j))
        for k in IDX:
            eqs.append(sp.expand(lhs[k] - rhs[k]))
    sol = sp.solve(eqs, kappa, dict=True)
    print("  kappa =", sol)

    print("== Ricci / scalar (LC) ==")
    sp.pprint(s)
    print("  tau =", sp.expand(sum(s[i, i] for i in IDX)))

    print("== GTW table (nonzero) ==")
    for i, j in itertools.product(IDX, IDX):
        v = sp.Matrix([gt[i][j][k] for k in IDX])
        if any(sp.simplify(e) != 0 for e in v):
            print(f"  gtw nabla_E{i+1} E{j+1} = {vec_str(v)}")

    print("== GTW torsion (i<j) ==")
    t = torsion(gt, c)
    for i, j in itertools.combinations(IDX, 2):
        print(f"  T(E{i+1},E{j+1}) = {vec_str(sp.Matrix([t[i][j][k] for k in IDX]))}")

    print("== GTW curvature (all nonzero) ==")
    for i, j, k in itertools.product(IDX, IDX, IDX):
        if any(sp.simplify(e) != 0 for e in r_gt[i][j][k]):
            print(f"  Rgt(E{i+1},E{j+1})E{k+1} = {vec_str(r_gt[i][j][k])}")

    print("== GTW Ricci / scalar ==")
    sp.pprint(s_gt)
    print("  tau_gt =", sp.expand(sum(s_gt[i, i] for i in IDX)))

    print("== concircular: K =", k_const, "==")
    print("  Z(E2,E1)E1 =", vec_str(z[1][0][0]))
    print("  Z(E1,E2)E2 =", vec_str(z[0][1][1]))
    print("  Z(E2,E3)E2 =", vec_str(z[1][2][1]))
    print("  Z(E2,E3)E3 =", vec_str(z[1][2][2]))

    print("== xi-flatness obstruction table Z(Ei,Ej)xi (i<j) ==")
    for i, j in itertools.combinations(IDX, 2):
        print(f"  Z(E{i+1},E{j+1})E1 = {vec_str(z[i][j][0])}")

    print("== phi-flatness residuals (nonzero, lex order) ==")
    first = None
    for i, j, k, l_ in itertools.product(IDX, IDX, IDX, IDX):
        pi, pj, pk, pl = phi[:, i], phi[:, j], phi[:, k], phi[:, l_]
        # Z(phi Ei, phi Ej) phi Ek expanded multilinearly
        acc = sp.zeros(DIM, 1)
        for a, b, cc in itertools.product(IDX, IDX, IDX):
            acc += pi[a] * pj[b] * pk[cc] * z[a][b][cc]
        res = sp.expand(acc.dot(pl))
        if sp.simplify(res) != 0:
            print(f"  residual({i+1},{j+1},{k+1},{l_+1}) = {res}")
            if first is None:
                first = (i + 1, j + 1, k + 1, l_ + 1, res)
    print("  first nonzero:", first)

    print("== ricci-action obstruction W_i(j,k) = (Z(xi,Ei).S_gt)(Ej,Ek) ==")
    first = None
    for i in IDX:
        w = derivation_on_form(z_endo(z, 0, i), s_gt)
        for j, k in itertools.product(IDX, IDX):
            if sp.simplify(w[j, k]) != 0:
                print(f"  W_{i+1}({j+1},{k+1}) = {w[j, k]}")
                if first is None:
                    first = (i + 1, j + 1, k + 1, w[j, k])
    print("  first nonzero:", first)
    w2 = derivation_on_form(z_endo(z, 0, 1), s_gt)
    print("  pinned value W_2(2,1) =", w2[1, 0])

    print("== self-action obstruction V_i(j,k,l) = (Z(xi,Ei).Z)(Ej,Ek)El ==")
    first = None
    count = 0
    for i in IDX:
        v = derivation_on_tensor(z_endo(z, 0, i), z)
        for j, k, l_ in itertools.product(IDX, IDX, IDX):
            if any(sp.simplify(e) != 0 for e in v[(j, k, l_)]):
                count += 1
                if first is None:
                    first = (i + 1, j + 1, k + 1, l_ + 1, vec_str(v[(j, k, l_)]))
    print("  first nonzero:", first, " (nonzero count:", count, ")")

    print("== space-form linear system over (F1,F2,F3) against GTW curvature ==")
    f1, f2, f3 = sp.symbols("F1 F2 F3")
    eqs = space_form_equations(phi, r_gt, (f1, f2, f3))
    sol = sp.linsolve(eqs, [f1, f2, f3])
    print("  solution set:", sol)
    resid = [sp.simplify(e.subs({f1: 1, f2: 1, f3: 1})) for e in eqs]
    nz = [e for e in resid if e != 0]
    print("  (1,1,1) residuals nonzero count:", len(nz), "sample:", nz[:3])

    print("== eta-Einstein fit of GTW Ricci ==")
    aa, bb = sp.symbols("A B")
    eqs = []
    for i, j in itertools.product(IDX, IDX):
        gij = sp.Integer(1) if i == j else sp.Integer(0)
        eqs.append(sp.expand(aa * gij + bb * ETA[i] * ETA[j] - s_gt[i, j]))
    print("  solution:", sp.linsolve(eqs, [aa, bb]))

    print("== closed-form curvature crosscheck residual at (2,3,2) ==")
    # printed long closed form, transcribed verbatim
    kappa_val = 1 - lam ** 2
    i, j, k = 1, 2, 1
    ei, ej, ek = basis(i), basis(j), basis(k)
    hei, hej = h * ei, h * ej
    printed = (
        r[i][j][k]
        + kappa_val * (
            (ETA[j] * ei.dot(ek) - ETA[i] * ej.dot(ek)) * XI
            - ETA[j] * ETA[k] * ei
            + ETA[i] * ETA[k] * ej
        )
        - ((ej + hej).dot(phi * ek)) * (phi * ei + phi * hei)
        + ((ei + hei).dot(phi * ek)) * (phi * ej + phi * hej)
        + (ei.dot(phi * ej + phi * hej) + ej.dot(phi * ei + phi * hei)) * (phi * ek)
    )
    print("  definitional:", vec_str(r_gt[i][j][k]))
    print("  printed form:", vec_str(sp.expand(printed)))
    print("  residual (def - printed):", vec_str(sp.expand(r_gt[i][j][k] - printed)))


if __name__ == "__main__":
    main()
