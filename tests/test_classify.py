import subprocess
import sys
import time

import pytest

from malcevlab import (
    TypeVerdict,
    classify,
    full_space,
    is_nilpotent,
    jacobian_span,
    product_subspace,
    semiprime_witness,
)
from malcevlab.algebra import MAX_DIM
from malcevlab.construct import abelian_algebra, cross_product_algebra, free_anticommutative


# name -> (lie, malcev, second_type, first_type)
EXPECTED = {
    "abelian_1": (True, True, True, True),
    "abelian_5": (True, True, True, True),
    "cross_product": (True, True, True, True),
    "heisenberg": (True, True, True, True),
    "octonion_malcev": (False, True, False, False),
    "second_type_23": (False, True, True, False),
    "quotient_22": (False, True, True, True),
    "free_2_3": (True, True, True, True),
    "free_3_3": (True, True, True, True),
    "free_3_5": (False, False, False, False),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_zoo_classification(name, animals):
    lie, malcev, second, first = EXPECTED[name]
    verdict = classify(animals[name])
    assert verdict.anticommutative
    assert verdict.lie is lie, name
    assert verdict.malcev is malcev, name
    assert verdict.second_type is second, name
    assert verdict.first_type is first, name


def test_classify_of_the_largest_abelian_algebra_takes_under_a_second():
    # the sweep visits the stored structure constants, and there are none
    algebra = abelian_algebra(MAX_DIM)
    t0 = time.perf_counter()
    verdict = classify(algebra)
    assert time.perf_counter() - t0 < 1.0
    assert verdict.lie and verdict.first_type


def test_example_witnesses(atilde):
    verdict = classify(atilde)
    assert not verdict.first_type
    cx = verdict.witnesses["first_type_4"]
    assert cx.indices == (0, 1, 2, 3)
    assert atilde.format_element(cx.residual) == "-2*v"
    jac = verdict.witnesses["jacobi"]
    assert jac.indices == (0, 1, 2)


def test_classification_implications_hold_for_all(animals):
    # TypeVerdict asserts the implications internally; classify every zoo
    # member to exercise those assertions.
    for name, algebra in animals.items():
        verdict = classify(algebra)
        if verdict.first_type:
            assert verdict.second_type
        if verdict.lie:
            assert verdict.malcev


def test_is_nilpotent_values(atilde, base22):
    assert is_nilpotent(abelian_algebra(3)) == (True, 2)
    assert is_nilpotent(atilde) == (True, 5)
    assert is_nilpotent(base22) == (True, 4)
    assert is_nilpotent(cross_product_algebra()) == (False, None)
    assert is_nilpotent(free_anticommutative(2, 5)) == (True, 5)


def test_semiprime_witness_on_example(atilde):
    witness = semiprime_witness(atilde)
    assert witness is not None
    assert witness.dim == 5
    square = product_subspace(atilde, witness, witness)
    assert square.is_zero()
    whole = full_space(atilde)
    assert witness.contains_subspace(jacobian_span(atilde, whole, whole, whole))


def test_semiprime_witness_none_for_lie(animals):
    for name in ("abelian_3", "cross_product", "heisenberg", "free_2_3", "free_3_3"):
        assert semiprime_witness(animals[name]) is None, name


def test_semiprime_witness_precondition():
    with pytest.raises(ValueError):
        semiprime_witness(free_anticommutative(3, 5))


def test_verdict_guard_survives_optimized_mode(child_env):
    # lie without malcev breaks an implication; the guard must also fire
    # under python -O, which strips assert statements
    with pytest.raises(RuntimeError):
        TypeVerdict(True, True, False, False, False)
    code = "from malcevlab import TypeVerdict; TypeVerdict(True, True, False, False, False)"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=child_env, timeout=60)
    assert proc.returncode != 0
    assert "RuntimeError: verdict breaks the hierarchy implications" in proc.stderr
