"""Fuzzing the input paths: the algebra file loader, the identity DSL and
the command line of every command but verify-paper.

Every input either succeeds or ends in the typed error of its layer
(AlgebraFormatError, IdentityError) or, through the CLI, exit code 2 with
`error:` on stderr; never another exception.  Exit 1 is kept for a check
that ran and failed.  The CLI imports each command's layers when it runs,
so these also cover the error paths of the lazily imported layers.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from malcevlab import parse_identity
from malcevlab.construct import cross_product_algebra, heisenberg_algebra
from malcevlab.algebra import MAX_DIM, Algebra, AlgebraFormatError
from malcevlab.cli import MAX_POWERS, main
from malcevlab.identities import IdentityError

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# -- algebra files -----------------------------------------------------------

INTS = st.one_of(st.integers(-2, 5), st.sampled_from([MAX_DIM, MAX_DIM + 1, 2 ** 70]))
NUMBERS = st.one_of(INTS.map(str), st.sampled_from(["", "x", "1.5", "+1", "-0", "٣", "1" * 5000]))
RATIONALS = st.one_of(
    NUMBERS,
    st.tuples(NUMBERS, NUMBERS).map("/".join),
    st.sampled_from(["1/", "/2", "1//2", "1/0", "0/0"]),
)
LINES = st.one_of(
    NUMBERS.map("dim {}".format),
    st.tuples(NUMBERS, st.sampled_from(["a", "b", "e0", "x y", ""])).map(
        lambda t: f"label {t[0]} {t[1]}"),
    st.tuples(NUMBERS, NUMBERS, st.sampled_from(["->", "-", ""]),
              st.lists(st.tuples(NUMBERS, RATIONALS).map(":".join), max_size=3)).map(
        lambda t: f"sc {t[0]} {t[1]} {t[2]} " + " ".join(t[3])),
    st.sampled_from(["", "# comment", "dim", "label", "sc", "sc 0 1 ->", "  \t"]),
    st.text(max_size=12),
)
TEXTS = st.lists(LINES, max_size=8).map("\n".join)


@FUZZ
@given(TEXTS)
def test_algebra_text_loads_or_raises_the_format_error(text):
    try:
        algebra = Algebra.from_text(text)
    except AlgebraFormatError:
        return
    # what loads, saves and loads back to the same algebra
    assert Algebra.from_text(algebra.to_text()).to_text() == algebra.to_text()


# -- identities ---------------------------------------------------------------

VARIABLES = ["x", "y", "z", "w"]
# products and Jacobians of x, y, z and w of total degree at most 5
FACTORS = st.recursive(
    st.sampled_from(VARIABLES),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]})*({p[1]})"),
        st.tuples(inner, inner, inner).map(lambda p: "J({},{},{})".format(*p)),
    ),
    max_leaves=5,
)
COEFFS = st.sampled_from(["", "0*", "2*", "1/2*", "-3/4*", "1/0*", "1" * 5000 + "*"])
SIDES = st.one_of(
    st.just("0"),
    st.lists(st.tuples(st.sampled_from(["+", "-"]), COEFFS, FACTORS).map("".join),
             min_size=1, max_size=3).map(" ".join),
)
TOKENS = st.sampled_from(VARIABLES + ["J", "J(", "*", "+", "-", "(", ")", ",", ":", "|",
                                       "/", "=", "0", "1", "12", "@", "x1", " "])
WELL_FORMED = st.tuples(
    st.sampled_from(["t", "J", "_a"]),
    st.lists(st.sampled_from(VARIABLES + ["J"]), min_size=1, max_size=4).map(",".join),
    SIDES, SIDES,
).map(lambda t: "{} : {} | {} = {}".format(*t))


@st.composite
def _edited(draw, sources):
    """A source with up to two tokens inserted and one span removed."""
    text = draw(sources)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(TOKENS) + text[at:]
    if text and draw(st.booleans()):
        start = draw(st.integers(0, len(text) - 1))
        text = text[:start] + text[start + draw(st.integers(1, 3)):]
    return text


IDENTITY_TEXTS = st.one_of(
    WELL_FORMED,
    _edited(WELL_FORMED),
    st.lists(TOKENS, max_size=20).map("".join),
    st.text(max_size=30),
)


@FUZZ
@given(IDENTITY_TEXTS)
def test_identity_text_parses_or_raises_the_identity_error(text):
    try:
        ident = parse_identity(text)
    except IdentityError:
        return
    # what parses, prints as DSL that parses back to the same identity
    assert parse_identity(ident.to_dsl()).to_dsl() == ident.to_dsl()


# -- the check command --------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def cross_file(fuzz_dir):
    path = fuzz_dir / "cross.alg"
    cross_product_algebra().save(path)
    return str(path)


@pytest.fixture(scope="module")
def heisenberg_file(fuzz_dir):
    path = fuzz_dir / "heis.alg"
    heisenberg_algebra().save(path)
    return str(path)


# the flags each command reads: a command line with any other of
# FLAG_VALUES is refused (exit 2)
FLAG_VALUES = {
    "--jobs": st.one_of(NUMBERS, st.sampled_from(["-3", "0", "2"])),
    "--seed": NUMBERS,
    "--format": st.sampled_from(["text", "machine-readable", "json", ""]),
}
GOOD_VALUES = {"--jobs": "2", "--seed": "5", "--format": "machine-readable"}
READS = {"build": (), "check": ("--jobs",), "classify": ("--jobs",), "kernel": (),
         "powers": (), "generate": ()}


def _cli(*argv):
    """(exit code, stdout) of `malcevlab ARGV...`, held to the exit-code
    contract: 0 or 1, or 2 with an `error:` line on stderr; a command line
    with a flag its command does not read is refused."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2)
    if set(argv) & (FLAG_VALUES.keys() - set(READS[argv[0]])):
        assert code == 2
    if code == 2:
        assert "error:" in err.getvalue()
    return code, out.getvalue()


@FUZZ
@given(st.one_of(IDENTITY_TEXTS, st.sampled_from(["malcev", "nope", "-x", "--jobs", ""])))
def test_check_command_exits_with_a_contract_code(cross_file, text):
    code, stdout = _cli("check", cross_file, text)
    if code != 2:
        assert f"status: {'holds' if code == 0 else 'fails'}" in stdout


# -- the other commands ---------------------------------------------------------

def flags(command):
    """Up to two flags for a command line of command: a flag it reads with
    good and bad values, one it does not read with a good value (refused)."""
    pairs = [st.tuples(st.just(flag), values) if flag in READS[command] else
             st.just((flag, GOOD_VALUES[flag])) for flag, values in FLAG_VALUES.items()]
    return st.lists(st.one_of(pairs), max_size=2).map(
        lambda drawn: [arg for pair in drawn for arg in pair])


FILES = st.sampled_from(["cross", "heis", "missing", "dir"])


@pytest.fixture(scope="module")
def files(fuzz_dir, cross_file, heisenberg_file):
    """Algebra file arguments: two small algebras, a missing file, a directory."""
    return {"cross": cross_file, "heis": heisenberg_file,
            "missing": str(fuzz_dir / "missing.alg"), "dir": str(fuzz_dir)}


DESCRIPTOR_WORDS = st.one_of(
    INTS.map(str),
    st.sampled_from(["paper-example", "free", "zoo", "heisenberg", "cross_product",
                     "nope", "", "x", "1.5", "--jobs"]),
)


@FUZZ
@given(st.lists(DESCRIPTOR_WORDS, max_size=4), flags("build"))
def test_build_command_exits_with_a_contract_code(fuzz_dir, words, flags):
    out = str(fuzz_dir / "built.alg")
    code, stdout = _cli("build", *words, "-o", out, *flags)
    assert code != 1  # build runs no check
    if code == 0:
        assert f"file: {out}" in stdout
        Algebra.load(out)


@settings(FUZZ, max_examples=60)
@given(FILES, flags("classify"))
def test_classify_command_exits_with_a_contract_code(files, name, flags):
    code, stdout = _cli("classify", files[name], *flags)
    assert code != 1
    if code == 0:
        assert "malcev: True" in stdout


@FUZZ
@given(FILES, flags("kernel"))
def test_kernel_command_exits_with_a_contract_code(files, name, flags):
    code, stdout = _cli("kernel", files[name], *flags)
    assert code != 1
    if code == 0:
        assert "kernel-dim: " in stdout


# --max values: malformed and small ones.  Large ones are not drawn: the
# chain is built power by power, so the work grows with --max squared.
# across the cap, but never a large K that runs: values above it are rejected
MAXIMA = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from([MAX_POWERS + 1, 10 ** 6, 2 ** 70]).map(str),
    st.sampled_from(["", "x", "1.5", "1/0"]),
)


@FUZZ
@given(FILES, st.one_of(st.just([]), MAXIMA.map(lambda m: ["--max", m])), flags("powers"))
def test_powers_command_exits_with_a_contract_code(files, name, maximum, flags):
    code, stdout = _cli("powers", files[name], *maximum, *flags)
    assert code != 1
    if code == 0:
        assert "power.1: 3" in stdout


# generators: labels, indices and coordinate vectors of good and bad lengths,
# with malformed parts (1/0, non-numeric, huge)
ELEMENTS = st.one_of(
    st.sampled_from(["e1", "e2", "e3", "p", "q", "z", "nope", ""]),
    INTS.map(str),
    st.lists(RATIONALS, min_size=1, max_size=4).map(",".join),
)


@FUZZ
@given(FILES, st.lists(ELEMENTS, max_size=3), flags("generate"))
def test_generate_command_exits_with_a_contract_code(files, name, elements, flags):
    code, stdout = _cli("generate", files[name], *elements, *flags)
    assert code != 1
    if code == 0:
        assert "subalgebra-dim: " in stdout
