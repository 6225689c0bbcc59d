import hashlib
import re

import pytest

from malcevlab import construct
from malcevlab import (
    BasisCapExceeded,
    SECOND_TYPE_PSI_ENTRIES,
    bilinear_form_from_entries,
    bilinear_form_from_text,
    catalog_identity,
    central_extension,
    check_identity,
    free_anticommutative,
    multilinear_quotient,
    second_type_example,
    zoo,
)
from malcevlab.algebra import BilinearForm
from malcevlab.construct import (
    WordAlgebra,
    _check_alternative,
    _octonion_table,
    build_descriptor,
    heisenberg_algebra,
)
from malcevlab.words import canonicalize, degree


def test_free_dimensions():
    assert free_anticommutative(2, 3).dim == 3
    assert free_anticommutative(2, 3).labels == ["x1", "x2", "[x1,x2]"]
    assert free_anticommutative(3, 3).dim == 6
    assert free_anticommutative(4, 4).dim == 34
    assert free_anticommutative(4, 4).words_per_degree() == [4, 6, 24]
    assert free_anticommutative(3, 5).words_per_degree() == [3, 3, 9, 30]


def test_free_cap_guard():
    with pytest.raises(BasisCapExceeded):
        free_anticommutative(6, 9)


def test_free_cap_guard_uses_recurrence():
    # the guard triggers before enumeration, so it is instant even for
    # astronomically large requests
    with pytest.raises(BasisCapExceeded):
        free_anticommutative(10, 12)


def test_free_cap_guard_counts_no_further_than_the_cap_needs():
    # the class is not bounded by itself: the count stops at the degree
    # where the cap is passed, and one generator spans a line at any class
    with pytest.raises(BasisCapExceeded, match="more than 10000 basis words"):
        free_anticommutative(2, 10 ** 6)
    with pytest.raises(BasisCapExceeded, match="has 44 basis words"):
        free_anticommutative(2, 7, cap=40)
    line = free_anticommutative(1, 2 ** 70)
    assert line.dim == 1 and line.labels == ["x1"] and line.basis_product(0, 0) == {}
    assert free_anticommutative(1, 2).to_text() == line.to_text()


def _free_reference(n_gens: int, nil_class: int) -> WordAlgebra:
    """free_anticommutative's algebra from every pair i < j of its basis,
    each word's degree recomputed."""
    free = free_anticommutative(n_gens, nil_class)
    words = free.words
    products = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if degree(words[i]) + degree(words[j]) < nil_class:
                sign, canon = canonicalize((words[i], words[j]))
                if sign:
                    products[(i, j)] = {free.word_index[canon]: sign}
    return WordAlgebra(words, free.gen_names, products, name=free.name)


@pytest.mark.parametrize("n_gens", [1, 2, 3, 4])
@pytest.mark.parametrize("nil_class", [2, 3, 4, 5])
def test_free_table_matches_the_all_pairs_reference(n_gens, nil_class):
    free = free_anticommutative(n_gens, nil_class)
    reference = _free_reference(n_gens, nil_class)
    assert list(free.table.items()) == list(reference.table.items())  # insertion order too
    assert free.to_text() == reference.to_text()


def test_free_canonicalizes_only_pairs_below_the_class(monkeypatch):
    # the degrees come from the grouping by degree; a row ends at the class
    calls = []

    def counted(tree):
        calls.append(tuple(degree(w) for w in tree))
        return canonicalize(tree)

    def recomputed(tree):
        raise AssertionError("recomputed a word's degree")

    monkeypatch.setattr(construct, "canonicalize", counted)
    monkeypatch.setattr(construct, "degree", recomputed)
    free_anticommutative(4, 4)
    assert len(calls) == 30
    assert sorted(set(calls)) == [(1, 1), (1, 2)]
    assert calls.count((1, 1)) == 6 and calls.count((1, 2)) == 24


# sha256 of to_text() for each ZOO entry: the constructions' output, pinned
# byte for byte
ZOO_TEXT_SHA256 = {
    "abelian_1": "299567bbbcc3e879eabf42ae2b2d293ebebaa5a0791da1e5994c6a3dc0f25868",
    "abelian_2": "356159c3c7b9f4a670b48f8c8ce195186f3672b2fdb4d6b43d78e542e2395ace",
    "abelian_3": "16407b468fa6d8082b2984db6b4956b449469c90846ab34ac98821ed47d10e7b",
    "abelian_4": "4f73dd3e6eef431de619fb5da2d62a4479d788bf7bab2b73bdf518336807980a",
    "abelian_5": "86a7624051410c40a2c4bb8d496c44b24c80003fc05934f3e347eaa87b7843cb",
    "cross_product": "c4135c0a3fee021aa6aafd54b94b683bbf1f59be23119869e1b19b53bbf63c78",
    "heisenberg": "ac6d56689ce72325f14f452622c7e0a36396c081dbe10e46b933133c6ba344cd",
    "octonion_malcev": "3f29594c92d39d574780dd0a301e92ec2807db3bcf35644b405d7b3b422a08f0",
    "second_type_23": "8af5ed011df8f6e742c6c52eb843ce406d238deec7ba6af0aa5bf6791e88b3d7",
    "quotient_22": "406c637ccf7f5a2f4e4b1c63713e06e13ffa57f3d7e1e6d1d2b63c0592699771",
    "free_2_3": "eb21145e27cde374712520e3d1713c3056ecdaaa603bc6ca203c597151f17f19",
    "free_3_3": "e1f388896239aad7999ad087ee9afd18df663e3ba6eea4c4211323337c64bdff",
    "free_3_5": "de98af693a6a005e83b0ab7370ad8fef5b545acf40b55089c979f8099aafc660",
}


@pytest.mark.parametrize("name", list(ZOO_TEXT_SHA256))
def test_zoo_text_is_unchanged(name):
    assert list(construct.ZOO) == list(ZOO_TEXT_SHA256)
    text = construct.ZOO[name]().to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == ZOO_TEXT_SHA256[name]


def test_freeness_no_jacobi(free44):
    j = free44.jacobian(*(free44.basis_element(i) for i in range(3)))
    assert not j.is_zero()


def test_free_truncation_kills_high_degree(free44):
    # degree 2 * degree 2 = degree 4 -> zero at nil_class 4
    i12 = free44.labels.index("[x1,x2]")
    i34 = free44.labels.index("[x3,x4]")
    assert free44.multiply(free44.basis_element(i12), free44.basis_element(i34)).is_zero()


def test_multilinear_quotient_layers(free44):
    quotient = multilinear_quotient(free44)
    assert quotient.dim == 22
    assert quotient.words_per_degree() == [4, 6, 12]
    assert quotient.labels[:4] == ["x1", "x2", "x3", "x4"]
    assert quotient.labels[4:10] == [
        "[x1,x2]", "[x1,x3]", "[x1,x4]", "[x2,x3]", "[x2,x4]", "[x3,x4]"
    ]
    assert len(quotient.labels[10:]) == 12


def test_multilinear_quotient_kills_repeats(free44):
    quotient = multilinear_quotient(free44)
    i12 = quotient.labels.index("[x1,x2]")
    # [x1,x2]*x1 has a repeated letter -> zero
    assert quotient.multiply(quotient.basis_element(i12), quotient.basis_element(0)).is_zero()
    # [x1,x2]*x3 = [x1,x2,x3]
    prod = quotient.multiply(quotient.basis_element(i12), quotient.basis_element(2))
    assert quotient.format_element(prod) == "[x1,x2,x3]"


def test_multilinear_quotient_is_algebra_map(free44):
    quotient = multilinear_quotient(free44)

    def project(element):
        out = [0] * quotient.dim
        for i, c in element.nonzero():
            word = free44.words[i]
            j = quotient.word_index.get(word)
            if j is not None:
                out[j] = c
        return quotient.element(out)

    for i in range(free44.dim):
        for j in range(i + 1, free44.dim):
            u, v = free44.basis_element(i), free44.basis_element(j)
            lhs = project(free44.multiply(u, v))
            rhs = quotient.multiply(project(u), project(v))
            assert lhs == rhs, (i, j)


def test_left_normed_expansion_in_free_degree_five():
    """J(x1,x2,x3)*x4 expands to the three left-normed degree-4 words
    with signs +, +, - when degree 4 is still alive."""
    free = free_anticommutative(4, 5)
    e = free.basis_element
    value = free.multiply(free.jacobian(e(0), e(1), e(2)), e(3))
    expected = (
        e(free.labels.index("[x1,x2,x3,x4]"))
        + e(free.labels.index("[x2,x3,x1,x4]"))
        - e(free.labels.index("[x1,x3,x2,x4]"))
    )
    assert value == expected


def test_psi_loader_verbatim_and_canonicalizing(base22):
    psi = bilinear_form_from_entries(base22, SECOND_TYPE_PSI_ENTRIES)
    i12 = base22.labels.index("[x1,x2]")
    i34 = base22.labels.index("[x3,x4]")
    assert psi.pair(i12, i34) == 2
    assert psi.pair(i34, i12) == -2
    # non-canonical word labels resolve with sign: [x2,x1] = -[x1,x2]
    twisted = bilinear_form_from_entries(base22, [("[x2,x1]", "[x3,x4]", -2)])
    assert twisted.pair(i12, i34) == 2
    # consistent duplicates are fine, conflicting ones are rejected
    bilinear_form_from_entries(
        base22, [("[x1,x2]", "[x3,x4]", 2), ("[x3,x4]", "[x1,x2]", -2)]
    )
    with pytest.raises(ValueError):
        bilinear_form_from_entries(
            base22, [("[x1,x2]", "[x3,x4]", 2), ("[x2,x1]", "[x3,x4]", 2)]
        )


def test_psi_text_format(base22):
    text = "# form table\npsi [x1,x2] [x3,x4] 2\npsi [x2,x3,x1] x4 -3\n"
    psi = bilinear_form_from_text(base22, text)
    assert psi.pair(base22.labels.index("[x1,x2]"), base22.labels.index("[x3,x4]")) == 2
    with pytest.raises(ValueError):
        bilinear_form_from_text(base22, "psi [x1,x2]\n")


def test_psi_rejects_nonzero_on_zero_word(base22):
    with pytest.raises(ValueError):
        bilinear_form_from_entries(base22, [("[x1,x1]", "x2", 1)])
    with pytest.raises(ValueError):
        bilinear_form_from_entries(base22, [("[x1,x2]", "[x1,x2]", 1)])
    # zero values on zero words are tolerated
    bilinear_form_from_entries(base22, [("[x1,x1]", "x2", 0)])


def test_central_extension_structure(base22):
    psi = bilinear_form_from_entries(base22, SECOND_TYPE_PSI_ENTRIES)
    extended = central_extension(base22, psi)
    assert extended.dim == 23
    assert extended.labels[-1] == "v"
    v = extended.basis_element(22)
    # v annihilates everything
    for i in range(23):
        assert extended.multiply(v, extended.basis_element(i)).is_zero()
    # the projection forgetting v is an algebra map
    for i in range(8):
        for j in range(i + 1, 22):
            prod = extended.multiply(extended.basis_element(i), extended.basis_element(j))
            base_prod = base22.multiply(base22.basis_element(i), base22.basis_element(j))
            assert prod.coords[:22] == base_prod.coords


def test_central_extension_with_zero_form(base22):
    extended = central_extension(base22, BilinearForm(base22.dim))
    assert extended.dim == 23
    v = extended.basis_element(22)
    for i in range(23):
        assert extended.multiply(extended.basis_element(i), v).is_zero()
    # products match the base exactly (direct sum with an annihilator line)
    e = extended.basis_element
    prod = extended.multiply(e(0), e(1))
    assert prod.coords[22] == 0


def test_example_multiplication_table_facts(atilde):
    e = atilde.basis_element
    # generator products carry no central part
    prod = atilde.multiply(e(0), e(1))
    assert atilde.format_element(prod) == "[x1,x2]"
    # the Jacobian of the first three generators is a nonzero element
    assert atilde.jacobian(e(0), e(1), e(2)) != atilde.zero()
    # B2 x complementary B2 pairs to the central line
    assert atilde.format_element(
        atilde.multiply(e(atilde.labels.index("[x1,x2]")), e(atilde.labels.index("[x3,x4]")))
    ) == "2*v"
    # x*x = 0
    assert atilde.multiply(e(0), e(0)).is_zero()
    # the degree-3 x degree-1 pairing from the form table
    assert atilde.format_element(
        atilde.multiply(e(atilde.labels.index("[x2,x3,x1]")), e(3))
    ) == "-3*v"


def test_published_eight_entry_table_is_not_second_type():
    """The corrected table adds psi([x2,x3,x4], x1) = 1; without it the
    extension fails the second-type law, which pins why the ninth entry
    exists."""
    eight = tuple(
        (w1, w2, v) for (w1, w2, v) in SECOND_TYPE_PSI_ENTRIES if (w1, w2) != ("[x2,x3,x4]", "x1")
    )
    assert len(eight) == 8
    variant = second_type_example(eight)
    report = check_identity(variant, catalog_identity("second_type_3a"))
    assert report.status == "fails"
    assert report.counterexample.indices == (0, 1, 2, 3)
    assert variant.format_element(report.counterexample.residual) == "-v"


def test_printed_jacobian_shift_variant_fails_on_malcev_instances(animals):
    """The catalog ships J(wx,y,z) = wJ(x,y,z) + J(w,y,z)x + 2J(yz,x,w).
    The variant with the last two arguments swapped fails on the non-Lie
    Malcev members, which pins the argument order."""
    from malcevlab import parse_identity

    printed = parse_identity(
        "printed_variant : w,x,y,z | J(w*x,y,z) = w*J(x,y,z) + J(w,y,z)*x + 2*J(y*z,w,x)"
    )
    assert not check_identity(animals["octonion_malcev"], printed).ok
    assert not check_identity(animals["second_type_23"], printed).ok
    # while the shipped form holds there (regression-checked in acceptance)
    shipped = catalog_identity("jacobian_shift_6")
    assert check_identity(animals["octonion_malcev"], shipped).ok


def test_octonion_table_is_alternative():
    _check_alternative(_octonion_table())


def test_alternative_check_has_teeth():
    broken = _octonion_table()
    sign, k = broken[1][2]
    broken[1][2] = (-sign, k)
    with pytest.raises(AssertionError):
        _check_alternative(broken)


# left alternative but not right alternative (found by search)
LEFT_NOT_RIGHT = [[(1, 2), (1, 1), (1, 2)], [(1, 0), (1, 1), (1, 0)], [(1, 2), (1, 1), (1, 2)]]


def _transpose(mult):
    return [list(column) for column in zip(*mult)]


def _alternative_failures(mult) -> set:
    """Every (law, a, b, j) at which a polarized alternative law fails,
    over all basis triples, with dict vectors."""
    def mul(u: dict, v: dict) -> dict:
        out: dict = {}
        for i, x in u.items():
            for j, y in v.items():
                s, k = mult[i][j]
                out[k] = out.get(k, 0) + s * x * y
        return {k: c for k, c in out.items() if c}

    def add(u: dict, v: dict) -> dict:
        return {k: c for k in u.keys() | v.keys() if (c := u.get(k, 0) + v.get(k, 0))}

    dim = len(mult)
    e = [{i: 1} for i in range(dim)]
    failures = set()
    for a in range(dim):
        for b in range(dim):
            ab_ba = add(mul(e[a], e[b]), mul(e[b], e[a]))
            for j in range(dim):
                if add(mul(e[a], mul(e[b], e[j])), mul(e[b], mul(e[a], e[j]))) != mul(ab_ba, e[j]):
                    failures.add(("left", a, b, j))
                if add(mul(mul(e[j], e[a]), e[b]), mul(mul(e[j], e[b]), e[a])) != mul(e[j], ab_ba):
                    failures.add(("right", a, b, j))
    return failures


def _check_failure(mult):
    """None if _check_alternative passes mult, else (law, a, b, j) it names."""
    try:
        _check_alternative(mult)
    except AssertionError as exc:
        match = re.fullmatch(r"(left|right) alternative law fails at \((\d+), (\d+), (\d+)\)", str(exc))
        assert match, str(exc)
        law, *indices = match.groups()
        return (law, *map(int, indices))
    return None


def test_alternative_check_tells_the_laws_apart():
    with pytest.raises(AssertionError, match="^right alternative law fails"):
        _check_alternative(LEFT_NOT_RIGHT)
    with pytest.raises(AssertionError, match="^left alternative law fails"):
        _check_alternative(_transpose(LEFT_NOT_RIGHT))
    assert {law for law, *_ in _alternative_failures(LEFT_NOT_RIGHT)} == {"right"}


def _single_sign_flips(mult):
    for i in range(len(mult)):
        for j in range(len(mult)):
            flipped = [list(row) for row in mult]
            s, k = flipped[i][j]
            flipped[i][j] = (-s, k)
            yield flipped


def test_alternative_check_agrees_with_a_dict_vector_reference():
    # the check visits a <= b only; the reference visits every (a, b, j)
    shipped = _octonion_table()
    tables = [shipped, *_single_sign_flips(shipped)]
    tables += [_transpose(t) for t in tables]
    tables += [LEFT_NOT_RIGHT, _transpose(LEFT_NOT_RIGHT)]
    rejected = 0
    for mult in tables:
        failures = _alternative_failures(mult)
        named = _check_failure(mult)
        assert (named is None) == (not failures)
        assert named is None or named in failures
        rejected += named is not None
    assert _check_failure(shipped) is None and _check_failure(_transpose(shipped)) is None
    assert rejected == len(tables) - 2


def test_octonion_malcev_not_lie(animals):
    oct7 = animals["octonion_malcev"]
    j = oct7.jacobian(*(oct7.basis_element(i) for i in (0, 1, 2)))
    assert not j.is_zero()


def test_zoo_contents(animals):
    assert len(animals) >= 7
    assert "second_type_23" in animals
    assert "quotient_22" in animals
    assert animals["heisenberg"].dim == 3
    assert animals["octonion_malcev"].dim == 7
    assert check_identity(animals["cross_product"], catalog_identity("jacobi")).ok
    names = list(animals)
    assert names == list(zoo())  # deterministic ordering


def test_example_is_fresh_each_time():
    a = second_type_example()
    b = second_type_example()
    assert a is not b
    assert a.table == b.table


def test_build_zoo_name_builds_only_that_algebra(monkeypatch):
    def unexpected(*args):
        raise AssertionError("built an algebra that was not asked for")

    for name in ("abelian_algebra", "cross_product_algebra", "octonion_malcev",
                 "second_type_example", "multilinear_base_22", "free_anticommutative"):
        monkeypatch.setattr(construct, name, unexpected)
    assert build_descriptor(["zoo", "heisenberg"]).table == heisenberg_algebra().table
    with pytest.raises(ValueError, match=f"have: {', '.join(construct.ZOO)}$"):
        build_descriptor(["zoo", "nope"])
    assert list(construct.ZOO)[-1] == "free_3_5"


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_session_builds_its_zoo_on_first_use(corrupt):
    from malcevlab.verify import _Session

    session = _Session(0, 1, corrupt)
    assert "zoo" not in vars(session)
    animals = session.zoo
    assert animals["second_type_23"] is session.example
    assert list(animals) == list(construct.ZOO)
    assert session.zoo is animals
