import ast
import math
import random
import time
from pathlib import Path
from unittest import mock

import pytest

import malcevlab
from malcevlab import (
    IdentityError,
    IdentityParseError,
    MultidegreeError,
    builtin_catalog,
    linearize,
    parse_identity,
    parse_map,
)
from malcevlab.construct import cross_product_algebra, octonion_malcev
from malcevlab.engine import evaluate_identity, random_element
from malcevlab.identities import (
    _CATALOG_SOURCES, MAX_NESTING, MAX_TERMS, CatalogEntry, _Parser, catalog_identity)


def side_as_dict(side):
    out = {}
    for coeff, term in side:
        out[term] = out.get(term, 0) + coeff
    return {t: c for t, c in out.items() if c}


def test_parse_first_type_4():
    ident = parse_identity("first_type_4 : x,y,u,v | J(x,y,u*v) = 0")
    assert ident.variables == ("x", "y", "u", "v")
    assert ident.multidegree == {"x": 1, "y": 1, "u": 1, "v": 1}
    assert ident.is_multilinear
    assert len(ident.lhs) == 3 and ident.rhs == ()


def test_parse_malcev_degrees():
    ident = parse_identity("malcev : x,y,z | J(x,y,x*z) = J(x,y,z)*x")
    assert ident.multidegree == {"x": 2, "y": 1, "z": 1}
    assert not ident.is_multilinear


def test_j_expansion():
    ident = parse_identity("jac : x,y,z | J(x,y,z) = 0")
    assert side_as_dict(ident.lhs) == {
        (("x", "y"), "z"): 1,
        (("y", "z"), "x"): 1,
        (("z", "x"), "y"): 1,
    }


def test_coefficients_and_signs():
    from fractions import Fraction

    ident = parse_identity("t : x,y | -2*x*y + 1/2*(y*x) = -3*(x*y)")
    assert side_as_dict(ident.lhs) == {("x", "y"): -2, ("y", "x"): Fraction(1, 2)}
    assert side_as_dict(ident.rhs) == {("x", "y"): -3}


def test_like_terms_combine():
    ident = parse_identity("t : x,y | x*y + x*y - 2*x*y = 0")
    assert ident.lhs == ()


def test_inconsistent_multidegree_rejected():
    with pytest.raises(MultidegreeError):
        parse_identity("bad : x | x*x = x")
    with pytest.raises(MultidegreeError):
        parse_identity("bad : x,y | x*y = y*y")


def test_unknown_variable_rejected():
    with pytest.raises(IdentityParseError) as info:
        parse_identity("bad : x,y | x*z = 0")
    assert "unknown variable" in str(info.value)
    assert info.value.pos > 0


def test_syntax_errors_carry_position():
    with pytest.raises(IdentityParseError):
        parse_identity("bad : x,y | x*y*x = 0")  # nested product needs parens
    with pytest.raises(IdentityParseError):
        parse_identity("bad : x,y | x+ = 0")
    with pytest.raises(IdentityParseError):
        parse_identity("bad : x,y | J(x,y) = 0")
    with pytest.raises(IdentityParseError):
        parse_identity("bad x,y | x*y = 0")
    with pytest.raises(IdentityParseError):
        parse_identity("bad : x,y | 2 = 0")
    with pytest.raises(IdentityParseError):
        parse_identity("bad : x,x | x*x = 0")


def test_nesting_depth_is_bounded():
    plain = parse_identity("d : x,y | x*y = 0")
    for levels in (50, MAX_NESTING):
        deep = parse_identity("d : x,y | " + "(" * levels + "x*y" + ")" * levels + " = 0")
        assert deep.lhs == plain.lhs
    text = "d : x,y | " + "(" * (MAX_NESTING + 1) + "x*y" + ")" * (MAX_NESTING + 1) + " = 0"
    with pytest.raises(IdentityParseError) as info:
        parse_identity(text)
    assert info.value.pos == text.index("(") + MAX_NESTING
    # J( counts as a level too
    inner = "x*y"
    for _ in range(MAX_NESTING):
        inner = f"({inner})"
    with pytest.raises(IdentityParseError):
        parse_identity(f"d : x,y,z | J({inner},z,z) = 0")


def test_parser_guards_are_exceptions_not_asserts():
    # parse_coeff is only entered at an integer token; off one it raises the
    # typed error, which python -O does not strip the way it strips asserts
    parser = _Parser("d : x | x = 0")
    with pytest.raises(IdentityParseError):
        parser.parse_coeff()
    src = Path(malcevlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def _nested_j(levels):
    inner = "x"
    for _ in range(levels):
        inner = f"J({inner},y,z)"
    return f"d : x,y,z | {inner} = 0"


def test_term_count_is_bounded():
    # J triples the terms per level: 8 levels expand to 3^8 = 6,561 terms,
    # the 9th would build 19,683
    assert 3**8 <= MAX_TERMS < 3**9
    parse_identity(_nested_j(8))
    text = _nested_j(20)
    start = time.perf_counter()
    with pytest.raises(IdentityParseError) as info:
        parse_identity(text)
    assert time.perf_counter() - start < 1.0
    # the 9th J from the inside, whose expansion is refused before it is built
    assert info.value.pos == text.index("J(") + 2 * (20 - 9)
    assert "terms" in str(info.value)
    # a product and a sum are bounded too
    eight = _nested_j(8).split("| ")[1].split(" =")[0]
    with pytest.raises(IdentityParseError):
        parse_identity(f"d : x,y,z | ({eight})*({eight}) = 0")
    with pytest.raises(IdentityParseError) as info:
        parse_identity(f"d : x,y,z | {eight} + {eight} = 0")
    assert info.value.pos == len(f"d : x,y,z | {eight} ")


def test_catalog_parses_unchanged_under_the_term_bound():
    catalog = builtin_catalog()
    for source, _, _ in _CATALOG_SOURCES:
        with mock.patch("malcevlab.identities.MAX_TERMS", 10**12):
            unbounded = parse_identity(source)
        assert parse_identity(source) == unbounded == catalog[unbounded.name].identity


def test_zero_sides():
    ident = parse_identity("t : x,y | 0 = x*y")
    assert ident.lhs == () and len(ident.rhs) == 1
    assert parse_identity("t : x,y | 0 = 0").residual_terms() == ()


def test_nested_parenthesized_products():
    ident = parse_identity("t : x,y,z,w | (x*y)*(z*w) = ((x*y)*z)*w")
    assert side_as_dict(ident.lhs) == {(("x", "y"), ("z", "w")): 1}
    assert side_as_dict(ident.rhs) == {((("x", "y"), "z"), "w"): 1}


def test_serialization_round_trip_catalog():
    for name, entry in builtin_catalog().items():
        again = parse_identity(entry.identity.to_dsl())
        assert again == entry.identity, name


def test_catalog_size_and_names():
    catalog = builtin_catalog()
    assert len(catalog) >= 13
    for expected in (
        "anticommutative", "jacobi", "malcev", "first_type_1", "first_type_2",
        "second_type_3a", "second_type_3b", "first_type_4", "first_type_5",
        "malcev_linear", "sagle_2_14", "sagle_2_15", "jacobian_shift_6",
        "two_w_jacobian",
    ):
        assert expected in catalog
    for entry in catalog.values():
        assert entry.claim
        assert entry.characteristic


def _eager_catalog() -> dict:
    """The catalog as a dict, every source parsed in order."""
    entries = [CatalogEntry(parse_identity(src), claim, char) for src, claim, char in _CATALOG_SOURCES]
    return {entry.identity.name: entry for entry in entries}


def _counting_parses():
    """Count the calls of parse_identity that the catalog makes."""
    return mock.patch("malcevlab.identities.parse_identity", wraps=parse_identity)


def test_catalog_entries_equal_the_eager_parse():
    eager = _eager_catalog()
    for src, claim, char in _CATALOG_SOURCES:
        ident = parse_identity(src)
        assert builtin_catalog()[ident.name] == CatalogEntry(ident, claim, char)
    assert list(builtin_catalog()) == list(eager)
    assert list(builtin_catalog().items()) == list(eager.items())
    assert list(builtin_catalog().values()) == list(eager.values())
    assert dict(builtin_catalog()) == eager and builtin_catalog() == eager
    # the keys, read from the text before each ':', are the parsed names
    assert len(builtin_catalog()) == len(_CATALOG_SOURCES) == len(eager) == 14


def test_catalog_parses_an_entry_when_it_is_first_read():
    catalog = builtin_catalog()
    with _counting_parses() as parse:
        assert "malcev" in catalog and "jacobi" in catalog
        assert len(catalog) == 14 and len(list(catalog)) == 14
        assert list(catalog.keys()) == list(_eager_catalog())
        assert parse.call_count == 0
        first = catalog["malcev"]
        assert parse.call_count == 1
        assert catalog["malcev"] is first and catalog.get("malcev") is first
        assert parse.call_count == 1
        list(catalog.items())
        assert parse.call_count == 14
    # each call parses its own entries: nothing outlives the mapping
    with _counting_parses() as parse:
        assert builtin_catalog()["malcev"] == first
        assert catalog_identity("jacobi").name == "jacobi"
        assert parse.call_count == 2


def test_catalog_unknown_names():
    catalog = builtin_catalog()
    with _counting_parses() as parse:
        assert "no_such_identity" not in catalog and "" not in catalog
        with pytest.raises(KeyError):
            catalog["no_such_identity"]
        assert catalog.get("no_such_identity") is None
        with pytest.raises(KeyError, match="catalog has: anticommutative, jacobi, malcev"):
            catalog_identity("no_such_identity")
        assert parse.call_count == 0


def test_catalog_is_read_only():
    catalog = builtin_catalog()
    with pytest.raises(TypeError):
        catalog["extra"] = catalog["malcev"]
    with pytest.raises(TypeError):
        del catalog["malcev"]


def test_linearize_malcev_golden():
    lin = linearize(builtin_catalog()["malcev"].identity)
    assert lin.variables == ("x1", "x2", "y", "z")
    assert lin.is_multilinear
    expected = parse_identity(
        "want : x1,x2,y,z | J(x1,y,x2*z) + J(x2,y,x1*z) = J(x1,y,z)*x2 + J(x2,y,z)*x1"
    )
    assert side_as_dict(lin.lhs) == side_as_dict(expected.lhs)
    assert side_as_dict(lin.rhs) == side_as_dict(expected.rhs)


def _power(var: str, degree: int) -> str:
    """y times var, degree times: one term of degree `degree` in var."""
    text = "y"
    for _ in range(degree):
        text = f"({text})*{var}"
    return text


def test_linearization_term_count_is_bounded():
    # one term of degree d in x linearizes to d! terms: 7! = 5,040 fit,
    # 8! = 40,320 and two terms of 7! each do not
    assert math.factorial(7) <= MAX_TERMS < 2 * math.factorial(7)
    lin = linearize(parse_identity(f"d : x,y | {_power('x', 7)} = 0"))
    assert lin.is_multilinear and len(lin.variables) == 8
    assert len(lin.lhs) == math.factorial(7)
    for text in (f"d : x,y | {_power('x', 8)} = 0",
                 f"d : x,y | {_power('x', 7)} = {_power('x', 7)}"):
        ident = parse_identity(text)
        start = time.perf_counter()
        with pytest.raises(IdentityError) as info:
            linearize(ident)
        assert time.perf_counter() - start < 0.1
        assert f"more than {MAX_TERMS}" in str(info.value)


def test_linearize_multilinear_is_identity():
    ident = builtin_catalog()["first_type_4"].identity
    assert linearize(ident) is ident


def test_linearize_square_polarizes():
    lin = linearize(parse_identity("sq : x | x*x = 0"))
    assert lin.variables == ("x1", "x2")
    assert side_as_dict(lin.lhs) == {("x1", "x2"): 1, ("x2", "x1"): 1}


def test_linearize_degree_three():
    lin = linearize(parse_identity("c3 : x,y | ((x*y)*x)*x = 0"))
    assert lin.variables == ("x1", "x2", "x3", "y")
    assert lin.is_multilinear
    assert len(lin.lhs) == 6  # 3! assignments


def test_linearize_fresh_name_collision():
    lin = linearize(parse_identity("t : x,x1 | (x*x1)*x = 0"))
    # plain x1/x2 collide with the declared variable x1
    assert lin.variables == ("x_1", "x_2", "x1")


def test_linearize_round_trips_through_dsl():
    lin = linearize(builtin_catalog()["malcev"].identity)
    assert parse_identity(lin.to_dsl()) == lin


@pytest.mark.parametrize("name", ["malcev", "second_type_3a", "second_type_3b"])
@pytest.mark.parametrize("make", [cross_product_algebra, octonion_malcev])
def test_linearization_semantic_oracle(name, make):
    """eval(linearized at equal fresh values) = prod(d_v!) * eval(original)."""
    algebra = make()
    ident = builtin_catalog()[name].identity
    lin = linearize(ident)
    factor = 1
    for d in ident.multidegree.values():
        factor *= math.factorial(d)
    rng = random.Random(f"oracle:{name}:{algebra.name}")
    for _ in range(15):
        assignment = {v: random_element(algebra, rng) for v in ident.variables}
        lin_assignment = {}
        for v in lin.variables:
            base = v.rstrip("0123456789")
            lin_assignment[v] = assignment[base if base in assignment else v]
        lhs = evaluate_identity(algebra, lin, lin_assignment)
        rhs = evaluate_identity(algebra, ident, assignment).scale(factor)
        assert lhs == rhs


def test_parse_map_and_multilinearity_guard():
    from malcevlab import check_skew_symmetric

    xi = parse_map("x1,x2,x3,x4 | J(x1,x2,x3*x4)", name="xi")
    assert xi.is_multilinear
    bad = parse_map("x,y | (x*y)*x", name="bad")
    with pytest.raises(IdentityError):
        check_skew_symmetric(cross_product_algebra(), bad)
