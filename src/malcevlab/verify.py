"""The certification suite behind the `verify-paper` CLI command.

Runs the full battery of exact checks against freshly constructed
algebras: the 23-dimensional construction and its witnesses, the
classification of the hierarchy, skew-symmetry of the Jacobian-derived
maps, the structure-theorem suite, the 3-generated property, the
equivalence of the first-type characterizations across the zoo, the
regression identities, the square-zero semiprimeness witness, and the
random-vs-exhaustive cross-check.

The structure suite's Jacobian spans J(A^i, A^j, A^k), for all 20
sorted power triples, come from one pass (power_jacobian_spans); one
direct jacobian_span(A, A, A) call checks the pass's J(A, A, A), and a
difference fails the check with one more detail line.  Both skip the
triples whose filtration weights reach the class by the same rule, so
the direct call checks the pass's filing of each J, not that rule; the
differential test of the pruning (tests/test_jacobian_pruning.py)
checks it against the computation without a class.

Reports are deterministic for a fixed seed: no timing, stable ordering,
stable formatting, and the parallel job count does not change any value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .algebra import Algebra
from .classify import is_nilpotent, semiprime_witness
from .construct import (
    SECOND_TYPE_PSI_ENTRIES,
    ZOO,
    second_type_example,
)
from .engine import (
    CheckReport,
    check_identity,
    check_skew_symmetric,
    evaluate_identity,
    random_element,
    random_substitutions_vanish,
)
from .identities import builtin_catalog, parse_map
from .subspaces import (
    full_space,
    jacobian_span,
    lie_kernel,
    power_chain,
    power_jacobian_spans,
    product_subspace,
    quotient_algebra,
    subalgebra_generate,
)


@dataclass(frozen=True)
class CheckResult:
    key: str
    claim: str
    passed: bool
    details: tuple = ()


def corrupted_psi_entries():
    """The built-in form table with one value deliberately broken
    (2 -> 3); used by the test mode to prove the checks have teeth."""
    out = []
    for w1, w2, value in SECOND_TYPE_PSI_ENTRIES:
        if (w1, w2) == ("[x1,x2]", "[x3,x4]"):
            value = 3
        out.append((w1, w2, value))
    return tuple(out)


class _Session:
    def __init__(self, seed: int, jobs: int, corrupt_psi: bool):
        self.seed = seed
        self.jobs = jobs
        self.catalog = builtin_catalog()
        self.example = second_type_example(corrupted_psi_entries() if corrupt_psi else None)
        self._reports: dict = {}
        self._structure: dict = {}

    @cached_property
    def zoo(self) -> dict:
        """The reference algebras, built on first use; second_type_23 is
        the session's example."""
        return {name: self.example if name == "second_type_23" else build()
                for name, build in ZOO.items()}

    def report(self, algebra: Algebra, identity_name: str) -> CheckReport:
        key = (algebra.name, identity_name)
        if key not in self._reports:
            ident = self.catalog[identity_name].identity
            self._reports[key] = check_identity(algebra, ident, jobs=self.jobs)
        return self._reports[key]

    def structure(self, algebra: Algebra):
        """(power_chain(algebra, 5), lie_kernel(algebra)), computed once."""
        key = algebra.name
        if key not in self._structure:
            self._structure[key] = (power_chain(algebra, 5), lie_kernel(algebra))
        return self._structure[key]

    def rng(self, check_key: str) -> random.Random:
        return random.Random(f"{self.seed}:{check_key}")

    def witness_text(self, algebra: Algebra, report: CheckReport) -> str:
        if report.counterexample is None:
            return "none"
        return report.counterexample.describe(algebra)


def _result(key, claim, passed, details=()):
    return CheckResult(key, claim, bool(passed), tuple(details))


# -- individual checks ------------------------------------------------------


def _check_construction(s: _Session):
    from .construct import free_anticommutative, multilinear_quotient

    free = free_anticommutative(4, 4)
    quotient = multilinear_quotient(free)
    layers = quotient.words_per_degree()
    ok = quotient.dim == 22 and layers == [4, 6, 12] and s.example.dim == 23
    yield _result(
        "construction",
        "multilinear quotient of free(4,4) has layers 4/6/12 (dim 22); extension has dim 23",
        ok,
        (f"layers: {'/'.join(str(c) for c in layers)}",
         f"quotient dim: {quotient.dim}", f"extension dim: {s.example.dim}"),
    )


def _check_witness(s: _Session):
    at = s.example
    e = at.basis_element
    value = at.multiply(at.jacobian(e(0), e(1), e(2)), e(3))
    expected = at.zero().coords[:-1] + (-3,)
    ok = value.coords == expected
    yield _result(
        "witness_3v",
        "[J(x1,x2,x3), x4] equals -3*v exactly",
        ok,
        (f"value: {at.format_element(value)}",),
    )


def _check_classification(s: _Session):
    at = s.example
    for name, want_hold in (
        ("malcev", True),
        ("second_type_3a", True),
        ("second_type_3b", True),
        ("first_type_4", False),
        ("first_type_5", False),
    ):
        rep = s.report(at, name)
        ok = rep.ok == want_hold
        details = [f"status: {rep.status}", f"tuples: {rep.tuples_checked}"]
        if rep.counterexample is not None:
            details.append(f"witness: {s.witness_text(at, rep)}")
        if name == "first_type_5" and rep.counterexample is not None:
            # independent re-verification through the dense evaluation path
            cx = rep.counterexample
            assignment = {
                v: at.basis_element(i) for v, i in zip(rep.identity.variables, cx.indices)
            }
            redo = evaluate_identity(at, rep.identity, assignment)
            ok = ok and redo == cx.residual and not redo.is_zero()
            details.append(f"re-verified: {at.format_element(redo)}")
        yield _result(
            f"classify_23.{name}",
            f"identity {name} {'holds' if want_hold else 'fails'} on the 23-dim example",
            ok,
            details,
        )


_SKEW_MAPS = (
    ("xi", "x1,x2,x3,x4 | J(x1,x2,x3*x4)"),
    ("zeta", "x1,x2,x3,x4 | J(x1,x2,x3)*x4"),
    ("sigma", "x1,x2,x3,x4,x5 | J(x1*x2,x3*x4,x5)"),
)


def _check_skew(s: _Session):
    at = s.example
    for name, src in _SKEW_MAPS:
        rep = check_skew_symmetric(at, parse_map(src, name=name), jobs=s.jobs)
        details = [f"tuples: {rep.tuples_checked}"]
        if rep.counterexample is not None:
            details.append(f"witness: {s.witness_text(at, rep)}")
        yield _result(
            f"skew.{name}",
            f"{name} is skew-symmetric on the 23-dim example",
            rep.ok,
            details,
        )


def _check_structure_suite(s: _Session):
    at = s.example
    chain, kernel = s.structure(at)

    ok_a = kernel.contains_subspace(chain[2])
    quotient, _ = quotient_algebra(at, kernel)
    jac_q = check_identity(quotient, s.catalog["jacobi"].identity, jobs=s.jobs)
    nil_q, cls_q = is_nilpotent(quotient)
    yield _result(
        "structure.kernel_quotient",
        "A^3 lies in the Lie kernel and A/N(A) is a nilpotent Lie algebra",
        ok_a and jac_q.ok and nil_q,
        (f"kernel dim: {kernel.dim}", f"A^3 dim: {chain[2].dim}",
         f"quotient dim: {quotient.dim}", f"quotient jacobi: {jac_q.status}",
         f"quotient nilpotency class: {cls_q}"),
    )

    _, restricted = subalgebra_generate(at, chain[1].row_elements())
    jac_sq = check_identity(restricted, s.catalog["jacobi"].identity, jobs=s.jobs)
    yield _result(
        "structure.square_is_lie",
        "the restricted algebra on A^2 is a Lie algebra",
        jac_sq.ok and restricted.dim == chain[1].dim,
        (f"A^2 dim: {restricted.dim}", f"jacobi: {jac_sq.status}"),
    )

    rep_c = s.report(at, "two_w_jacobian")
    yield _result(
        "structure.two_w_transfer",
        "2wJ(x,y,z) = 3J(w,x,yz) holds exhaustively",
        rep_c.ok,
        (f"tuples: {rep_c.tuples_checked}",),
    )

    spans = power_jacobian_spans(at, chain, list(_power_triples()))
    # an independent check of the pass: J(A,A,A) from the one-triple span
    direct = jacobian_span(at, chain[0], chain[0], chain[0])
    ok_direct = direct == spans[(1, 1, 1)]
    high = [f"J(A^{i},A^{j},A^{k}) dim {spans[(i,j,k)].dim}"
            for (i, j, k) in spans if i + j + k >= 5 and not spans[(i, j, k)].is_zero()]
    ok_di = not high
    ok_dii = True
    bad_dii = []
    for (i, j, k), sp in spans.items():
        if sp.is_zero():
            continue
        for r in range(max(1, 5 - (i + j + k)), 5):
            prod = product_subspace(at, sp, chain[r - 1])
            if i + j + k + r >= 5 and not prod.is_zero():
                ok_dii = False
                bad_dii.append(f"J(A^{i},A^{j},A^{k})A^{r} dim {prod.dim}")
    jspan = spans[(1, 1, 1)]
    ja = product_subspace(at, jspan, chain[0])
    jaa = product_subspace(at, ja, chain[0])
    ok_diii = jaa.is_zero()
    yield _result(
        "structure.jacobian_span_vanishing",
        "J(A^i,A^j,A^k) = 0 for i+j+k >= 5; J(A^i,A^j,A^k)A^r = 0 for i+j+k+r >= 5; (J(A,A,A)A)A = 0",
        ok_di and ok_dii and ok_diii and ok_direct,
        tuple(high + bad_dii) + (f"J(A,A,A) dim: {jspan.dim}", f"(JA)A dim: {jaa.dim}")
        + (() if ok_direct else (f"direct J(A,A,A) dim: {direct.dim}, differs from the pass",)),
    )

    square = product_subspace(at, jspan, jspan)
    yield _result(
        "structure.jacobian_square_zero",
        "J(A,A,A)^2 = 0",
        square.is_zero(),
        (f"square dim: {square.dim}",),
    )


def _power_triples():
    """Sorted power triples (i, j, k) with 1 <= i <= j <= k <= 4; the
    Jacobian span is symmetric in its three spaces, so these cover all."""
    for i in range(1, 5):
        for j in range(i, 5):
            for k in range(j, 5):
                yield (i, j, k)


def _check_fourth_power(s: _Session):
    at = s.example
    chain, kernel = s.structure(at)
    yield _result(
        "structure.fourth_power_in_kernel",
        "A^4 is contained in the Lie kernel",
        kernel.contains_subspace(chain[3]),
        (f"A^4 dim: {chain[3].dim}", f"kernel dim: {kernel.dim}"),
    )


def _check_three_generated(s: _Session):
    at = s.example
    eq4 = s.catalog["first_type_4"].identity
    bad = []
    for subset in combinations(range(4), 3):
        _, restricted = subalgebra_generate(at, [at.basis_element(i) for i in subset])
        rep = check_identity(restricted, eq4, jobs=s.jobs)
        if not rep.ok:
            bad.append(f"subset {subset}")
    yield _result(
        "three_generated.subsets",
        "every generator 3-subset generates a subalgebra satisfying first_type_4",
        not bad,
        tuple(bad) or ("subsets checked: 4",),
    )

    rng = s.rng("three_generated")
    dims = []
    bad = []
    for trial in range(50):
        gens = [random_element(at, rng) for _ in range(3)]
        sub, restricted = subalgebra_generate(at, gens)
        dims.append(sub.dim)
        rep = check_identity(restricted, eq4, jobs=s.jobs)
        if not rep.ok:
            bad.append(f"trial {trial}")
    yield _result(
        "three_generated.random",
        "50 random rational triples generate subalgebras satisfying first_type_4",
        not bad,
        tuple(bad) or (f"dims seen: {sorted(set(dims))}",),
    )


def _first_type_profile(s: _Session, algebra: Algebra):
    eq1 = s.report(algebra, "first_type_1").ok
    eq2 = s.report(algebra, "first_type_2").ok
    malcev = s.report(algebra, "malcev").ok
    eq4 = s.report(algebra, "first_type_4").ok
    eq5 = s.report(algebra, "first_type_5").ok
    return {
        "defining": eq1 and eq2,
        "malcev_eq4": malcev and eq4,
        "malcev_eq5": malcev and eq5,
        "malcev": malcev,
    }


def _check_first_type_equivalences(s: _Session):
    disagreements = []
    summaries = []
    for name, algebra in s.zoo.items():
        profile = _first_type_profile(s, algebra)
        verdicts = (profile["defining"], profile["malcev_eq4"], profile["malcev_eq5"])
        if len(set(verdicts)) != 1:
            disagreements.append(f"{name}: {verdicts}")
        summaries.append(f"{name}: first_type={verdicts[0]}")
    yield _result(
        "first_type.characterizations",
        "the three characterizations of the first type agree on every zoo algebra",
        not disagreements,
        tuple(disagreements or summaries),
    )

    violations = []
    for name, algebra in s.zoo.items():
        profile = _first_type_profile(s, algebra)
        if not profile["defining"]:
            continue
        ok = (
            profile["malcev"]
            and s.report(algebra, "second_type_3a").ok
            and s.report(algebra, "second_type_3b").ok
        )
        if not ok:
            violations.append(name)
    yield _result(
        "first_type.implication",
        "first_type_1 + first_type_2 imply the Malcev and second-type identities",
        not violations,
        tuple(violations) or ("implication verified on all qualifying zoo algebras",),
    )


_SAGLE_NAMES = ("malcev_linear", "sagle_2_14", "sagle_2_15", "jacobian_shift_6")


def _check_sagle(s: _Session):
    failures = []
    members = []
    for name, algebra in s.zoo.items():
        if name == "free_3_5" or not s.report(algebra, "malcev").ok:
            continue
        members.append(name)
        for ident_name in _SAGLE_NAMES:
            rep = s.report(algebra, ident_name)
            if not rep.ok:
                failures.append(f"{name}: {ident_name} fails")
    yield _result(
        "sagle.malcev_members",
        "the four Malcev-theorem identities hold exhaustively on every Malcev zoo member",
        not failures,
        tuple(failures) or (f"members: {', '.join(members)}",),
    )

    free = s.zoo["free_3_5"]
    details = []
    ok = True
    for ident_name in _SAGLE_NAMES:
        rep = s.report(free, ident_name)
        if rep.ok or rep.counterexample is None:
            ok = False
            details.append(f"{ident_name}: unexpectedly holds")
        else:
            details.append(f"{ident_name}: fails at {s.witness_text(free, rep)}")
    yield _result(
        "sagle.regression",
        "the four identities fail on the degree-4-alive free truncation free(3,5) with witnesses",
        ok,
        tuple(details),
    )


def _check_semiprime(s: _Session):
    at = s.example
    witness = semiprime_witness(at, jobs=s.jobs)
    ok = witness is not None and witness.dim > 0
    details = [f"witness ideal dim: {witness.dim if witness else 0}"]
    if witness is not None:
        square = product_subspace(at, witness, witness)
        ok = ok and square.is_zero()
        details.append(f"witness square dim: {square.dim}")
    yield _result(
        "semiprime.example_witness",
        "the 23-dim example has a nonzero square-zero ideal (so it is not semiprime)",
        ok,
        details,
    )

    bad = []
    lie_members = []
    for name, algebra in s.zoo.items():
        if not s.report(algebra, "jacobi").ok:
            continue
        lie_members.append(name)
        if semiprime_witness(algebra, jobs=s.jobs) is not None:
            bad.append(name)
    yield _result(
        "semiprime.lie_members",
        "no Lie zoo member yields a witness (their Jacobian span is zero)",
        not bad,
        tuple(bad) or (f"lie members: {', '.join(lie_members)}",),
    )


def _check_crosscheck(s: _Session):
    mismatches = []
    checked = 0
    for ident_name, entry in s.catalog.items():
        if entry.identity.is_multilinear:
            continue
        for name, algebra in s.zoo.items():
            exhaustive = s.report(algebra, ident_name).ok
            rng = s.rng(f"crosscheck:{ident_name}:{name}")
            all_zero, hits = random_substitutions_vanish(algebra, entry.identity, rng, samples=100)
            checked += 1
            if all_zero != exhaustive:
                mismatches.append(f"{name}/{ident_name}: exhaustive={exhaustive} random_hits={hits}")
    yield _result(
        "crosscheck.linearization",
        "100 seeded random substitutions agree with the exhaustive linearized verdict "
        "for every non-multilinear catalog identity on every zoo algebra",
        not mismatches,
        tuple(mismatches) or (f"combinations checked: {checked}",),
    )


_CHECKS = (
    _check_construction,
    _check_witness,
    _check_classification,
    _check_skew,
    _check_structure_suite,
    _check_fourth_power,
    _check_three_generated,
    _check_first_type_equivalences,
    _check_sagle,
    _check_semiprime,
    _check_crosscheck,
)


def run_suite(seed: int = 0, jobs: int = 1, corrupt_psi: bool = False) -> list:
    """Run every check; never raises, failures become failed results."""
    session = _Session(seed, jobs, corrupt_psi)
    results: list = []
    for check in _CHECKS:
        try:
            results.extend(check(session))
        except Exception as exc:  # deterministic message, reported as failure
            results.append(
                _result(check.__name__.removeprefix("_check_"), "check crashed", False, (str(exc),))
            )
    return results


def suite_passed(results) -> bool:
    return all(r.passed for r in results)


def render_text(results, seed: int, jobs: int) -> str:
    lines = ["malcevlab verification suite", f"seed: {seed}", f"jobs: {jobs}", ""]
    width = max(len(r.key) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.key.ljust(width)}  {r.claim}")
        for d in r.details:
            lines.append(f"       {' ' * width}  - {d}")
    failures = sum(1 for r in results if not r.passed)
    lines.append("")
    lines.append(
        f"result: {len(results) - failures}/{len(results)} checks passed"
        + ("" if failures == 0 else f", {failures} FAILED")
    )
    return "\n".join(lines) + "\n"


def render_machine(results, seed: int, jobs: int) -> str:
    lines = ["suite: malcevlab-verify", f"seed: {seed}", f"jobs: {jobs}"]
    for r in results:
        lines.append(f"check: {r.key}")
        lines.append(f"claim: {r.claim}")
        lines.append(f"status: {'pass' if r.passed else 'fail'}")
        for d in r.details:
            lines.append(f"detail: {d}")
    lines.append(f"checks: {len(results)}")
    lines.append(f"failures: {sum(1 for r in results if not r.passed)}")
    lines.append(f"result: {'pass' if suite_passed(results) else 'fail'}")
    return "\n".join(lines) + "\n"
