"""Manifest loading, canonical dumping, hashing, and validation errors."""

import copy
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from contactframe import (
    ManifestError,
    ManifestIssue,
    dump_manifest,
    load_manifest,
    load_manifest_file,
    make_lambda_family,
    make_sasakian3,
    manifest_hash,
)
from contactframe.manifest import MAX_DIMENSION, MAX_PARAMETERS
from contactframe.scalars import MAX_DEPTH, MAX_EXPONENT, MAX_TERMS

LAMBDA_PATH = "manifests/lambda_family.json"
ABELIAN_PATH = "manifests/abelian3.json"

LAMBDA_HASH = "70a9e3409abc5179e73d14419f6d821e0b6b775bbebb1546187d0b68a720cbf9"
ABELIAN_HASH = "9fddb272255fd1ce2592fcd78535b7137bc0fe6eb180edf35d4604fbd37574c6"


def _base_doc() -> dict:
    with open(LAMBDA_PATH) as fh:
        return json.load(fh)


def test_shipped_manifest_matches_constructor():
    m, s = load_manifest_file(LAMBDA_PATH)
    entry = make_lambda_family()
    assert m == entry.manifold
    assert s == entry.structure


def test_dump_load_roundtrip():
    for path in (LAMBDA_PATH, ABELIAN_PATH):
        m, s = load_manifest_file(path)
        doc = dump_manifest(m, s)
        m2, s2 = load_manifest(doc)
        assert m2 == m
        assert s2 == s
        assert dump_manifest(m2, s2) == doc


def test_hashes_are_stable():
    m, s = load_manifest_file(LAMBDA_PATH)
    assert manifest_hash(dump_manifest(m, s)) == LAMBDA_HASH
    m2, s2 = load_manifest_file(ABELIAN_PATH)
    assert manifest_hash(dump_manifest(m2, s2)) == ABELIAN_HASH


def test_xi_accepts_frame_index():
    doc = _base_doc()
    doc["contact"]["xi"] = 1
    m, s = load_manifest(doc)
    entry = make_lambda_family()
    assert s == entry.structure


def test_missing_file_raises_manifest_error(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest_file(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest_file(str(bad))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(dimension=4), "odd"),
        (lambda d: d.update(dimension="three"), "dimension"),
        (lambda d: d.pop("contact"), "contact"),
        (lambda d: d["contact"].pop("phi"), "phi"),
        (lambda d: d.update(extra_field=1), "extra_field"),
        (lambda d: d["structure_constants"].append({"i": 1, "j": 9, "k": 1, "coeff": "1"}), "j"),
        (lambda d: d["structure_constants"].append({"i": 2, "j": 1, "k": 3, "coeff": "1"}), "i"),
        (
            lambda d: d["structure_constants"].append(
                {"i": 1, "j": 2, "k": 3, "coeff": "1"}
            ),
            "duplicate",
        ),
        (
            lambda d: d["structure_constants"].append(
                {"i": 1, "j": 2, "k": 1, "coeff": "x/{"}
            ),
            "coeff",
        ),
        (
            lambda d: d["structure_constants"].append(
                {"i": 1, "j": 2, "k": 1, "coeff": "1", "weight": 2}
            ),
            "weight",
        ),
        (lambda d: d["contact"].update(eta=["1", "0"]), "eta"),
        (lambda d: d.update(parameters=["lambda", "lambda"]), "parameters"),
        (lambda d: d.update(parameters=["lambda", "not an ident!"]), "parameters"),
        (lambda d: d["contact"].update(phi=[["0", "0"], ["0", "0"]]), "phi"),
        (lambda d: d["contact"].update(xi=9), "xi"),
    ],
)
def test_rejections(mutate, fragment):
    doc = copy.deepcopy(_base_doc())
    mutate(doc)
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(doc)
    text = " ".join(str(issue) for issue in excinfo.value.issues)
    assert fragment.lower() in text.lower(), text


def test_error_collects_multiple_issues():
    doc = copy.deepcopy(_base_doc())
    doc["contact"]["eta"] = ["1", "0"]
    doc["structure_constants"].append({"i": 2, "j": 1, "k": 3, "coeff": "1"})
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(doc)
    assert len(excinfo.value.issues) >= 2


def test_an_invalid_expression_is_reported_at_each_entry():
    """Expressions are parsed once per document, but a failed parse is not
    stored: one invalid string in two entries gives two issues, two paths."""
    doc = copy.deepcopy(_base_doc())
    doc["structure_constants"].append({"i": 1, "j": 2, "k": 1, "coeff": "x/{"})
    doc["contact"]["phi"][0][0] = "x/{"
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(doc)
    issues = excinfo.value.issues
    assert [issue.path for issue in issues] == [
        f"structure_constants[{len(doc['structure_constants']) - 1}].coeff",
        "contact.phi[0][0]",
    ]
    assert issues[0].message == issues[1].message


# appended to H^5 (over the parameter lambda) one case at a time, then all at once
MALFORMED_ENTRIES = {
    "non_dict": [
        "1",
        2,
        None,
        [1, 2, 3, "1"],
    ],
    "bool_index": [
        {"i": True, "j": 2, "k": 1, "coeff": "1"},
        {"i": 1, "j": 2, "k": False, "coeff": "1"},
    ],
    "non_int_index": [
        {"i": 1.0, "j": 2, "k": 1, "coeff": "1"},
        {"i": 1, "j": "3", "k": 1, "coeff": "1"},
    ],
    "out_of_range": [
        {"i": 0, "j": 2, "k": 1, "coeff": "1"},
        {"i": 1, "j": 6, "k": 1, "coeff": "1"},
        {"i": 1, "j": 2, "k": 6, "coeff": "1"},
        {"i": -1, "j": 9, "k": 0, "coeff": "1"},
    ],
    "i_not_below_j": [
        {"i": 2, "j": 1, "k": 1, "coeff": "1"},
        {"i": 3, "j": 3, "k": 2, "coeff": "x"},
    ],
    "missing_field": [
        {"j": 2, "k": 1, "coeff": "1"},
        {"i": 1, "j": 2, "coeff": "1"},
        {"i": 1, "j": 2, "k": 1},
        {},
    ],
    "extra_field": [
        {"i": 1, "j": 2, "k": 1, "coeff": "1", "note": "x"},
        {"i": 1, "j": 3, "k": 1, "coeff": "1", "z": 0, "a": 1},
        {"i": 2, "j": 1, "k": 1, "coeff": "1", "note": "x"},
    ],
    "non_str_coeff": [
        {"i": 1, "j": 2, "k": 1, "coeff": 1},
        {"i": 1, "j": 2, "k": 2, "coeff": None},
        {"i": 1, "j": 2, "k": 3, "coeff": ["1"]},
    ],
    "bad_coeff": [
        {"i": 1, "j": 2, "k": 1, "coeff": "1+"},
        {"i": 1, "j": 2, "k": 2, "coeff": "mu"},
        {"i": 1, "j": 3, "k": 1, "coeff": "1/0"},
    ],
    "duplicate_triple": [
        {"i": 2, "j": 4, "k": 1, "coeff": "5"},
        {"i": 3, "j": 5, "k": 1, "coeff": "2"},
        {"i": 2, "j": 4, "k": 1, "coeff": "lambda+"},
        {"i": 3, "j": 5, "k": 1, "coeff": 2},
    ],
}
MIXED_TAIL = [
    {"i": True, "j": 5, "coeff": 3, "extra": 1},
    "entry",
    {"i": 1, "j": 2, "k": 1, "coeff": "lambda"},
    {"i": 1, "j": 2, "k": 1, "coeff": "lambda"},
]

# the (path, message) list of each case, path after "structure_constants"
MALFORMED_ISSUES = {
    "non_dict": [
        ("[2]", "expected an object"),
        ("[3]", "expected an object"),
        ("[4]", "expected an object"),
        ("[5]", "expected an object"),
    ],
    "bool_index": [
        ("[2].i", "expected an integer"),
        ("[3].k", "expected an integer"),
    ],
    "non_int_index": [
        ("[2].i", "expected an integer"),
        ("[3].j", "expected an integer"),
    ],
    "out_of_range": [
        ("[2].i", "index 0 outside 1..5"),
        ("[3].j", "index 6 outside 1..5"),
        ("[4].k", "index 6 outside 1..5"),
        ("[5].i", "index -1 outside 1..5"),
        ("[5].j", "index 9 outside 1..5"),
        ("[5].k", "index 0 outside 1..5"),
    ],
    "i_not_below_j": [
        ("[2].i", "require i < j, got (2,1)"),
        ("[3].i", "require i < j, got (3,3)"),
    ],
    "missing_field": [
        ("[2].i", "expected an integer"),
        ("[3].k", "expected an integer"),
        ("[4].coeff", "expected an expression string"),
        ("[5].i", "expected an integer"),
        ("[5].j", "expected an integer"),
        ("[5].k", "expected an integer"),
    ],
    "extra_field": [
        ("[2].note", "unknown field"),
        ("[3].a", "unknown field"),
        ("[3].z", "unknown field"),
        ("[4].note", "unknown field"),
        ("[4].i", "require i < j, got (2,1)"),
    ],
    "non_str_coeff": [
        ("[2].coeff", "expected an expression string"),
        ("[3].coeff", "expected an expression string"),
        ("[4].coeff", "expected an expression string"),
    ],
    "bad_coeff": [
        ("[2].coeff", "expected a number, parameter name, '(' or '-' (at position 2)"),
        ("[3].coeff", "unknown parameter 'mu'; declared: ['lambda'] (at position 2)"),
        ("[4].coeff", "zero denominator (at position 3)"),
    ],
    "duplicate_triple": [
        ("[2]", "duplicate triple (i,j,k)=(2,4,1)"),
        ("[3]", "duplicate triple (i,j,k)=(3,5,1)"),
        ("[4].coeff", "expected a number, parameter name, '(' or '-' (at position 7)"),
        ("[5].coeff", "expected an expression string"),
    ],
    "mixed": [
        ("[2]", "expected an object"),
        ("[3]", "expected an object"),
        ("[4]", "expected an object"),
        ("[5]", "expected an object"),
        ("[6].i", "expected an integer"),
        ("[7].k", "expected an integer"),
        ("[8].i", "expected an integer"),
        ("[9].j", "expected an integer"),
        ("[10].i", "index 0 outside 1..5"),
        ("[11].j", "index 6 outside 1..5"),
        ("[12].k", "index 6 outside 1..5"),
        ("[13].i", "index -1 outside 1..5"),
        ("[13].j", "index 9 outside 1..5"),
        ("[13].k", "index 0 outside 1..5"),
        ("[14].i", "require i < j, got (2,1)"),
        ("[15].i", "require i < j, got (3,3)"),
        ("[16].i", "expected an integer"),
        ("[17].k", "expected an integer"),
        ("[18].coeff", "expected an expression string"),
        ("[19].i", "expected an integer"),
        ("[19].j", "expected an integer"),
        ("[19].k", "expected an integer"),
        ("[20].note", "unknown field"),
        ("[21].a", "unknown field"),
        ("[21].z", "unknown field"),
        ("[22].note", "unknown field"),
        ("[22].i", "require i < j, got (2,1)"),
        ("[23].coeff", "expected an expression string"),
        ("[24].coeff", "expected an expression string"),
        ("[25].coeff", "expected an expression string"),
        ("[26].coeff", "expected a number, parameter name, '(' or '-' (at position 2)"),
        ("[27].coeff", "unknown parameter 'mu'; declared: ['lambda'] (at position 2)"),
        ("[28].coeff", "zero denominator (at position 3)"),
        ("[29]", "duplicate triple (i,j,k)=(2,4,1)"),
        ("[30]", "duplicate triple (i,j,k)=(3,5,1)"),
        ("[31].coeff", "expected a number, parameter name, '(' or '-' (at position 7)"),
        ("[32].coeff", "expected an expression string"),
        ("[33].i", "expected an integer"),
        ("[33].k", "expected an integer"),
        ("[33].extra", "unknown field"),
        ("[34]", "expected an object"),
        ("[35]", "duplicate triple (i,j,k)=(1,2,1)"),
        ("[36]", "duplicate triple (i,j,k)=(1,2,1)"),
    ],
}


def _malformed_issues(entries: list) -> list[tuple[str, str]]:
    doc = _heisenberg_doc(2)
    doc["parameters"] = ["lambda"]
    doc["structure_constants"] += copy.deepcopy(entries)
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(doc)
    return [(issue.path, issue.message) for issue in excinfo.value.issues]


@pytest.mark.parametrize("case", [*MALFORMED_ENTRIES, "mixed"])
def test_malformed_structure_constants_give_exact_issues(case):
    """Each malformed entry reports the exact paths and messages, in entry
    order; an entry with only an unknown field is still read, so a later
    repeat of its triple is a duplicate."""
    if case == "mixed":
        entries = [e for listed in MALFORMED_ENTRIES.values() for e in listed] + MIXED_TAIL
    else:
        entries = MALFORMED_ENTRIES[case]
    expected = MALFORMED_ISSUES[case]
    assert _malformed_issues(entries) == [("structure_constants" + p, m) for p, m in expected]


def test_hash_is_order_insensitive_via_canonical_dump():
    """dump_manifest emits a canonical ordering, so two equal structures can

    never hash differently."""
    m, s = load_manifest_file(LAMBDA_PATH)
    doc_a = dump_manifest(m, s)
    doc_b = dump_manifest(*load_manifest(doc_a))
    assert manifest_hash(doc_a) == manifest_hash(doc_b)


# -- input budgets -------------------------------------------------------------------


def _heisenberg_doc(n: int) -> dict:
    """H^(2n+1): frame xi, X_a, Y_a with [X_a, Y_a] = 2 xi and phi X_a = Y_a."""
    dim = 2 * n + 1
    phi = [["0"] * dim for _ in range(dim)]
    for a in range(1, n + 1):
        phi[n + a][a], phi[a][n + a] = "1", "-1"
    return {
        "dimension": dim,
        "parameters": [],
        "structure_constants": [
            {"i": 1 + a, "j": 1 + n + a, "k": 1, "coeff": "2"} for a in range(1, n + 1)
        ],
        "contact": {"xi": 1, "eta": ["1"] + ["0"] * (dim - 1), "phi": phi},
    }


def _coeff_doc(coeff: str) -> dict:
    """The lambda family with one extra coefficient over parameters x and y."""
    doc = copy.deepcopy(_base_doc())
    doc["parameters"] = ["lambda", "x", "y"]
    doc["structure_constants"].append({"i": 1, "j": 2, "k": 1, "coeff": coeff})
    return doc


def _budget_issue(doc: dict) -> ManifestIssue:
    with pytest.raises(ManifestError) as excinfo:
        load_manifest(doc)
    (issue,) = excinfo.value.issues
    return issue


def test_budgets_admit_committed_manifests_zoo_entries_and_h9():
    for path in sorted(Path("manifests").glob("*.json")):
        load_manifest_file(str(path))
    for entry in (
        make_lambda_family(),
        make_lambda_family(Fraction(1, 2)),
        make_sasakian3(),
    ):
        load_manifest(dump_manifest(entry.manifold, entry.structure))
    assert load_manifest(_heisenberg_doc(4))[0].dim == 9
    assert load_manifest(_heisenberg_doc((MAX_DIMENSION - 1) // 2))[0].dim == MAX_DIMENSION


@pytest.mark.parametrize("dim", [MAX_DIMENSION + 1, MAX_DIMENSION + 2])
def test_dimension_just_past_the_limit_is_refused(dim):
    doc = _heisenberg_doc((MAX_DIMENSION - 1) // 2)
    doc["dimension"] = dim
    issue = _budget_issue(doc)
    assert issue.path == "dimension"
    assert "MAX_DIMENSION" in issue.message


def _parameters_doc(count: int) -> dict:
    """The lambda family declaring ``count`` parameters, the extra ones unused."""
    doc = copy.deepcopy(_base_doc())
    doc["parameters"] = ["lambda"] + [f"p{a}" for a in range(1, count)]
    return doc


def test_parameters_at_the_limit_load():
    m, _ = load_manifest(_parameters_doc(MAX_PARAMETERS))
    assert len(m.params) == MAX_PARAMETERS


def test_parameters_just_past_the_limit_are_refused_before_parsing():
    doc = _parameters_doc(MAX_PARAMETERS + 1)
    doc["structure_constants"].append({"i": 1, "j": 2, "k": 1, "coeff": "(("})
    issue = _budget_issue(doc)  # the unparsable coefficient is never read
    assert issue.path == "parameters"
    assert "MAX_PARAMETERS" in issue.message


def test_exponent_just_past_the_limit_is_refused():
    load_manifest(_coeff_doc(f"x^{MAX_EXPONENT}"))
    issue = _budget_issue(_coeff_doc(f"x^{MAX_EXPONENT + 1}"))
    assert issue.path.startswith("structure_constants[") and issue.path.endswith("].coeff")
    assert "MAX_EXPONENT" in issue.message


def _monomial_sum(count: int) -> str:
    monomials = [f"x^{a}*y^{b}" for a in range(17) for b in range(17)]
    return "+".join(monomials[:count])


def test_sum_just_past_the_term_limit_is_refused():
    m, _ = load_manifest(_coeff_doc(_monomial_sum(MAX_TERMS)))
    assert len(m.c[0][1][0].terms) == MAX_TERMS
    issue = _budget_issue(_coeff_doc(_monomial_sum(MAX_TERMS + 1)))
    assert issue.path.endswith("].coeff")
    assert "MAX_TERMS" in issue.message


def test_product_past_the_term_limit_is_refused():
    """Each factor is small; the product's 16 * 17 = 272 terms are not."""
    xs = "+".join(f"x^{a}" for a in range(16))
    ys = "+".join(f"y^{b}" for b in range(17))
    issue = _budget_issue(_coeff_doc(f"({xs})*({ys})"))
    assert "MAX_TERMS" in issue.message


def test_large_power_is_refused_before_it_is_computed():
    """(x+y+1)^40 has 861 terms; the bound refuses it without expanding it."""
    start = time.perf_counter()
    issue = _budget_issue(_coeff_doc("(x+y+1)^40"))
    assert time.perf_counter() - start < 0.5
    assert "MAX_TERMS" in issue.message
    load_manifest(_coeff_doc("(x+y+1)^12"))  # 91 terms


def test_budget_breach_exits_2_with_its_path(tmp_path):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_coeff_doc("(x+y+1)^40")))
    proc = subprocess.run(
        [sys.executable, "-m", "contactframe", "verify", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "structure_constants[" in proc.stderr and "MAX_TERMS" in proc.stderr


NESTINGS = {
    "parentheses": lambda depth: "(" * depth + "x" + ")" * depth,
    "unary minus": lambda depth: "-" * depth + "x",
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_just_past_the_depth_limit_is_refused(shape):
    nest = NESTINGS[shape]
    m, _ = load_manifest(_coeff_doc(nest(MAX_DEPTH)))
    assert str(m.c[0][1][0]) == ("-x" if shape == "unary minus" and MAX_DEPTH % 2 else "x")
    issue = _budget_issue(_coeff_doc(nest(MAX_DEPTH + 1)))
    assert issue.path.startswith("structure_constants[") and issue.path.endswith("].coeff")
    assert issue.message == f"nesting deeper than MAX_DEPTH = {MAX_DEPTH} (at position {MAX_DEPTH})"


def test_nesting_past_the_depth_limit_in_phi_is_refused_at_its_path():
    doc = _base_doc()
    doc["contact"]["phi"][1][2] = "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
    issue = _budget_issue(doc)
    assert issue.path == "contact.phi[1][2]"
    assert "MAX_DEPTH" in issue.message


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("shape, depth", [("parentheses", 250), ("unary minus", 990)])
def test_a_deeply_nested_coefficient_exits_2_with_its_path(tmp_path, source, shape, depth):
    """Nesting that would exhaust the parser's recursion is refused by its
    budget: exit 2 with the JSON path, not a RecursionError traceback."""
    text = json.dumps(_coeff_doc(NESTINGS[shape](depth)))
    command = [sys.executable, "-m", "contactframe", "verify"]
    if source == "file":
        path = tmp_path / "nested.json"
        path.write_text(text)
        proc = subprocess.run(command + [str(path)], capture_output=True, text=True)
    else:
        proc = subprocess.run(command + ["-"], input=text, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("structure_constants[")
    assert "].coeff: nesting deeper than MAX_DEPTH" in proc.stderr
    assert "Traceback" not in proc.stderr


def _all_triples_doc(dim: int, extra: int) -> dict:
    """H^dim with one entry per distinct triple (i < j, k), plus ``extra``
    repeats of the first."""
    doc = _heisenberg_doc((dim - 1) // 2)
    listed = {(c["i"], c["j"], c["k"]): c["coeff"] for c in doc["structure_constants"]}
    doc["structure_constants"] = [
        {"i": i, "j": j, "k": k, "coeff": listed.get((i, j, k), "0")}
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
        for k in range(1, dim + 1)
    ]
    doc["structure_constants"] += doc["structure_constants"][:1] * extra
    return doc


@pytest.mark.parametrize("dim", [3, 5])
def test_structure_constants_past_the_triple_count_are_refused_before_reading(dim):
    most = dim * dim * (dim - 1) // 2
    doc = _all_triples_doc(dim, 0)
    assert len(doc["structure_constants"]) == most
    assert load_manifest(doc)[0] == load_manifest(_heisenberg_doc((dim - 1) // 2))[0]
    doc = _all_triples_doc(dim, 1)
    doc["structure_constants"][-1] = {"coeff": "(("}  # never read
    issue = _budget_issue(doc)
    assert issue.path == "structure_constants"
    assert issue.message == (
        f"{most + 1} entries, more than the {most} distinct triples (i < j, k) of dimension {dim}"
    )


def test_a_flood_of_repeated_triples_is_one_issue():
    start = time.perf_counter()
    issue = _budget_issue(_all_triples_doc(3, 200_000))
    assert time.perf_counter() - start < 0.5
    assert issue.path == "structure_constants"


def _reference_dump(m, s) -> dict:
    """dump_manifest as it rendered every coefficient through its own str()."""
    constants = []
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            for k in range(m.dim):
                coeff = m.c[i][j][k]
                if not coeff.is_zero():
                    constants.append({"i": i + 1, "j": j + 1, "k": k + 1, "coeff": str(coeff)})
    return {
        "dimension": m.dim,
        "parameters": list(m.params),
        "structure_constants": constants,
        "contact": {
            "xi": [str(c) for c in s.xi.components],
            "eta": [str(c) for c in s.eta.components],
            "phi": [[str(s.phi.matrix[r][c]) for c in range(m.dim)] for r in range(m.dim)],
        },
    }


def test_dump_matches_the_reference_rendering_on_every_committed_manifest():
    inputs = [load_manifest_file(str(path)) for path in sorted(Path("manifests").glob("*.json"))]
    inputs += [(e.manifold, e.structure) for e in (make_lambda_family(), make_sasakian3())]
    for m, s in inputs:
        document = dump_manifest(m, s)
        assert document == _reference_dump(m, s)
        assert json.dumps(document) == json.dumps(_reference_dump(m, s))
