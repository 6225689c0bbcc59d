import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest

from malcevlab import classify, lie_kernel, second_type_example
from malcevlab.algebra import MAX_DIM, Algebra, dense
from malcevlab.cli import MAX_POWERS, main
from malcevlab.engine import MAX_UNPRUNED_TUPLES
from malcevlab.identities import _CATALOG_SOURCES, parse_identity
from malcevlab.rationals import parse_rational
from malcevlab.subspaces import Subspace
from conftest import count_products
from test_integral import rebased


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    code, stdout, _ = run_cli(capsys, "build", "paper-example", "-o", str(out))
    assert code == 0
    assert "dim: 23" in stdout
    algebra = Algebra.load(out)
    assert algebra.dim == 23
    assert algebra.labels[-1] == "v"


def test_build_free_and_zoo(tmp_path, capsys):
    out = tmp_path / "f.alg"
    code, stdout, _ = run_cli(capsys, "build", "free", "2", "3", "-o", str(out))
    assert code == 0 and "dim: 3" in stdout
    code, stdout, _ = run_cli(capsys, "build", "zoo", "heisenberg", "-o", str(out))
    assert code == 0 and "dim: 3" in stdout


def test_build_unknown_descriptor(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "build", "nonsense")
    assert code == 2
    assert "descriptor" in stderr


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # a directory as -o: exit 2 with a message, never a traceback with exit 1
    code, _, stderr = run_cli(capsys, "build", "free", "2", "3", "-o", str(tmp_path))
    assert code == 2 and "error:" in stderr
    src = tmp_path / "heis.alg"
    run_cli(capsys, "build", "zoo", "heisenberg", "-o", str(src))
    code, _, stderr = run_cli(capsys, "generate", str(src), "0", "1", "-o", str(tmp_path))
    assert code == 2 and "error:" in stderr


def test_round_trip_classification_matches_in_memory(tmp_path, capsys):
    from malcevlab import second_type_example

    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    loaded = Algebra.load(out)
    in_memory = classify(second_type_example())
    reloaded = classify(loaded)
    assert in_memory.summary() == reloaded.summary()
    assert {k: v.indices for k, v in in_memory.witnesses.items()} == {
        k: v.indices for k, v in reloaded.witnesses.items()
    }


def test_check_exit_codes(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "check", str(out), "malcev")
    assert code == 0 and "status: holds" in stdout
    code, stdout, _ = run_cli(capsys, "check", str(out), "first_type_5")
    assert code == 1
    assert "witness: (x1, x2, x3, x4)" in stdout
    assert "residual: -3*v" in stdout
    code, stdout, _ = run_cli(capsys, "check", str(out), "first_type_4")
    assert code == 1
    assert "identity: first_type_4" in stdout
    assert "residual: -2*v" in stdout
    code, _, stderr = run_cli(capsys, "check", str(out), "no_such_identity")
    assert code == 2 and "catalog" in stderr
    code, _, stderr = run_cli(capsys, "check", str(out), "bad : x | x*x = x")
    assert code == 2
    # the identity is a required positional: argparse exits 2 with a usage line
    with pytest.raises(SystemExit) as info:
        main(["check", str(out)])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err
    code, _, stderr = run_cli(capsys, "check", str(tmp_path / "missing.alg"), "malcev")
    assert code == 2
    # unreadable input is a usage error too, never a traceback with exit 1
    code, _, stderr = run_cli(capsys, "check", str(tmp_path), "malcev")
    assert code == 2 and "error:" in stderr
    undecodable = tmp_path / "bytes.alg"
    undecodable.write_bytes(b"dim 1\nlabel 0 \xff\xfe\n")
    code, _, stderr = run_cli(capsys, "check", str(undecodable), "malcev")
    assert code == 2 and "bytes.alg" in stderr


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "heis.alg"
    run_cli(capsys, "build", "zoo", "heisenberg", "-o", str(out))
    for levels in (2000, 10_000):
        deep = "d : x,y | " + "(" * levels + "x*y" + ")" * levels + " = 0"
        code, _, stderr = run_cli(capsys, "check", str(out), deep)
        assert code == 2 and "nesting" in stderr
    shallow = "d : x,y | " + "(" * 50 + "x*y" + ")" * 50 + " = 0"
    code, stdout, _ = run_cli(capsys, "check", str(out), shallow)
    assert code == 1 and "status: fails" in stdout


def test_term_count_bound_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "heis.alg"
    run_cli(capsys, "build", "zoo", "heisenberg", "-o", str(out))
    inner = "x"
    for _ in range(20):  # 3^20 terms, if nothing stopped it
        inner = f"J({inner},y,z)"
    code, stdout, stderr = run_cli(capsys, "check", str(out), f"d : x,y,z | {inner} = 0")
    assert code == 2 and "terms" in stderr and not stdout


@pytest.mark.parametrize("text, message", [
    ("dim 2\nlabel 5 foo\nlabel -1 bar\nsc 0 1 -> 1:1\n", "line 2: label index 5 outside 0..1"),
    ("dim 2\nlabel 0 x\nlabel 0 y\nsc 0 1 -> 1:1\n", "line 3: duplicate label 0"),
    ("dim 2 junk\nsc 0 1 -> 1:1\n", "line 1: dim needs exactly one value"),
    ("dim 2\nsc 0 2 -> 1:1\n", "line 2: sc index 2 outside 0..1"),
])
@pytest.mark.parametrize("command", ["powers", "kernel"])
def test_unusable_labels_are_input_errors(tmp_path, capsys, command, text, message):
    path = tmp_path / "labels.alg"
    path.write_text(text)
    code, stdout, stderr = run_cli(capsys, command, str(path))
    assert code == 2 and message in stderr and not stdout


def test_cli_import_leaves_multiprocessing_out(capped_python):
    # only the engine's pool uses it: the CLI's cold start does not import it
    done = capped_python("-c", "import sys, malcevlab.cli; print('multiprocessing' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_huge_dim_is_an_input_error(tmp_path, capped_python):
    path = tmp_path / "huge.alg"
    path.write_text("dim 1000000000000\n")
    done = capped_python("-m", "malcevlab.cli", "check", str(path), "first_type_5")
    assert done.returncode == 2, done.stderr
    assert "exceeds" in done.stderr and not done.stdout


def test_oversized_linearization_is_an_input_error(tmp_path, capped_python):
    # degree 8 in x would linearize to 8! = 40,320 terms, over MAX_TERMS
    path = tmp_path / "h.alg"
    path.write_text("dim 2\nsc 0 1 -> 1:1\n")
    term = "y"
    for _ in range(8):
        term = f"({term})*x"
    done = capped_python("-m", "malcevlab.cli", "check", str(path), f"d : x,y | {term} = 0")
    assert done.returncode == 2, done.stderr
    assert "40320 terms" in done.stderr and not done.stdout


def test_check_parses_only_the_identity_it_names(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    with mock.patch("malcevlab.identities.parse_identity", wraps=parse_identity) as parse:
        code, stdout, _ = run_cli(capsys, "check", str(out), "malcev")
        assert code == 0 and "status: holds" in stdout
        assert [c.args[0].split(" :")[0] for c in parse.call_args_list] == ["malcev"]
        parse.reset_mock()
        code, stdout, stderr = run_cli(capsys, "check", str(out), "no_such_identity")
        assert parse.call_count == 0
    names = ", ".join(parse_identity(src).name for src, _, _ in _CATALOG_SOURCES)
    assert code == 2 and not stdout
    assert stderr == f"error: unknown identity 'no_such_identity'; catalog names: {names}\n"


def test_check_accepts_dsl(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    code, stdout, _ = run_cli(
        capsys, "check", str(out), "z5 : x,y,z,u | J(x,y,z)*u = 0"
    )
    assert code == 1
    assert "identity: z5" in stdout
    assert "residual: -3*v" in stdout


def test_classify_output(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "classify", str(out))
    assert code == 0
    assert "malcev: True" in stdout
    assert "second_type: True" in stdout
    assert "first_type: False" in stdout
    assert "witness.first_type_4: (x1, x2, x3, x4) -> -2*v" in stdout


def test_classify_is_deterministic(tmp_path, capsys):
    out = tmp_path / "oct.alg"
    run_cli(capsys, "build", "zoo", "octonion_malcev", "-o", str(out))
    _, first, _ = run_cli(capsys, "classify", str(out))
    _, second, _ = run_cli(capsys, "classify", str(out))
    assert first == second


def test_kernel_and_powers(tmp_path, capsys):
    out = tmp_path / "atilde.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "kernel", str(out))
    assert code == 0 and "kernel-dim: 13" in stdout
    code, stdout, _ = run_cli(capsys, "powers", str(out))
    assert code == 0
    assert "power.2: 19" in stdout
    assert "power.5: 0" in stdout
    assert "class: 5" in stdout


def _kernel_rows(stdout) -> list:
    """The sparse rows of `kernel` output: 'row.t: k:c ...', the syntax of
    a product in an sc line."""
    rows = []
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("row."):
            assert key == f"row.{len(rows)}"
            rows.append({int(k): parse_rational(c) for k, _, c in (e.partition(":") for e in value.split())})
    return rows


@pytest.mark.parametrize("rebase", [False, True])
def test_kernel_rows_parse_back_to_the_kernel(tmp_path, capsys, rebase):
    algebra = second_type_example()
    if rebase:  # rows with fractions
        algebra = rebased(algebra, random.Random(5))
    path = tmp_path / "a.alg"
    algebra.save(path)
    code, stdout, _ = run_cli(capsys, "kernel", str(path))
    assert code == 0 and "kernel-dim: 13" in stdout
    kernel = lie_kernel(algebra)
    rows = _kernel_rows(stdout)
    assert rows == list(kernel.sparse_rows)
    assert Subspace(algebra.dim, [dense(r, algebra.dim) for r in rows]) == kernel
    if rebase:
        assert any("/" in line for line in stdout.splitlines() if line.startswith("row."))


def test_kernel_of_the_largest_abelian_file_prints_sparse_rows(tmp_path, capped_python):
    path = tmp_path / "abelian.alg"
    path.write_text(f"dim {MAX_DIM}\n")
    t0 = time.perf_counter()
    done = capped_python("-m", "malcevlab.cli", "kernel", str(path))
    assert time.perf_counter() - t0 < 10.0
    assert done.returncode == 0, done.stderr
    assert f"kernel-dim: {MAX_DIM}\n" in done.stdout
    assert _kernel_rows(done.stdout) == [{i: 1} for i in range(MAX_DIM)]


@pytest.mark.parametrize("argv", [["classify"], ["check", "jacobi"], ["check", "malcev", "--jobs", "2"]])
def test_an_unpruned_scan_of_the_largest_file_is_refused(tmp_path, capped_python, argv):
    # cross_product + abelian(9,997): not nilpotent, so no pruning, and
    # dim^3 = 10^12 tuples
    path = tmp_path / "cross.alg"
    path.write_text(f"dim {MAX_DIM}\nsc 0 1 -> 2:1\nsc 1 2 -> 0:1\nsc 0 2 -> 1:-1\n")
    command, *rest = argv
    t0 = time.perf_counter()
    done = capped_python("-m", "malcevlab.cli", command, str(path), *rest)
    assert time.perf_counter() - t0 < 10.0
    assert done.returncode == 2, done.stderr
    assert not done.stdout
    (line,) = done.stderr.splitlines()
    n = 3 if rest[:1] != ["malcev"] else 4
    assert line.startswith("error: ") and line.endswith(
        f" {MAX_DIM ** n} basis tuples ({MAX_DIM}^{n}) exceeds the bound of {MAX_UNPRUNED_TUPLES}")


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_a_stdout_write_error_is_an_input_error(tmp_path, child_env, sink):
    # exit 2 with one error line, not a traceback with exit 1 (a failed
    # check), and no second error when the interpreter flushes stdout at
    # exit: it is buffered, as by default
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full")
        fd = os.open(sink, os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    path = tmp_path / "atilde.alg"
    second_type_example().save(path)
    env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run([sys.executable, "-m", "malcevlab.cli", "kernel", str(path)],
                              stdout=fd, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(fd)
    assert done.returncode == 2
    assert done.stderr.startswith("error: writing output:") and done.stderr.count("\n") == 1


def test_powers_trims_when_stable(tmp_path, capsys):
    out = tmp_path / "cross.alg"
    run_cli(capsys, "build", "zoo", "cross_product", "-o", str(out))
    ran = []
    products = count_products(lambda: ran.append(run_cli(capsys, "powers", str(out))))
    code, stdout, _ = ran[0]
    assert code == 0
    # one chain, stopped at A^2 = A, serves the listing and the verdict:
    # A^2 = A A forms e_j e_k for the 3 * 2 ordered pairs of distinct basis
    # vectors, each a stored structure constant
    assert products == 6
    assert "power.1: 3" in stdout and "power.2: 3" in stdout
    assert "power.3" not in stdout  # stabilized
    assert "nilpotent: no" in stdout


def test_powers_max_stops_building_at_zero_and_is_capped(tmp_path, capsys):
    out = tmp_path / "heis.alg"
    run_cli(capsys, "build", "zoo", "heisenberg", "-o", str(out))
    ran = []
    products = count_products(
        lambda: ran.append(run_cli(capsys, "powers", str(out), "--max", str(MAX_POWERS))))
    code, stdout, _ = ran[0]
    assert code == 0
    # A^3 = 0 ends the chain (A^2 = A A: p q and q p, the one stored pair
    # both ways; A^3 = A A^2: z has no partner, no product): the later
    # powers are listed, not built
    assert products == 2
    assert "power.2: 1" in stdout and "power.3: 0" in stdout
    assert f"power.{MAX_POWERS}: 0" in stdout and f"power.{MAX_POWERS + 1}" not in stdout
    for k in (MAX_POWERS + 1, 0, -2):
        code, stdout, stderr = run_cli(capsys, "powers", str(out), "--max", str(k))
        assert code == 2 and not stdout
        assert stderr.startswith("error:") and str(MAX_POWERS) in stderr


def test_powers_goes_past_a_plateau(tmp_path, capsys):
    # A^4 = A^5 is a plateau, and A^6 = 0
    out = tmp_path / "plateau.alg"
    out.write_text("dim 5\nsc 1 2 -> 4:-1\nsc 1 3 -> 2:1\nsc 2 4 -> 0:-1\n")
    code, stdout, _ = run_cli(capsys, "powers", str(out))
    assert code == 0
    assert stdout.endswith("power.5: 1\npower.6: 0\nnilpotent: yes\nclass: 6\n")
    code, stdout, _ = run_cli(capsys, "powers", str(out), "--max", "7")
    assert code == 0
    assert stdout.endswith("power.6: 0\npower.7: 0\nnilpotent: yes\nclass: 6\n")


def test_powers_rejects_an_unsettled_chain_while_check_answers(tmp_path, capsys):
    # e_k e_(k+1) = e_(k+2) on 12 basis vectors has class 145, past the
    # power chain's cap: no class, so the identity scan is not pruned
    out = tmp_path / "fib12.alg"
    out.write_text("dim 12\n" + "".join(f"sc {k} {k + 1} -> {k + 2}:1\n" for k in range(10)))
    for argv in ([], ["--max", "3"]):
        code, stdout, stderr = run_cli(capsys, "powers", str(out), *argv)
        assert code == 2 and not stdout
        assert stderr.startswith("error:") and "power chain" in stderr
    code, stdout, _ = run_cli(capsys, "check", str(out), "jacobi")
    assert code in (0, 1) and "tuples: " in stdout


def test_generate_by_labels_and_coords(tmp_path, capsys):
    src = tmp_path / "atilde.alg"
    dst = tmp_path / "sub.alg"
    run_cli(capsys, "build", "paper-example", "-o", str(src))
    code, stdout, _ = run_cli(
        capsys, "generate", str(src), "x1", "x2", "x3", "-o", str(dst)
    )
    assert code == 0
    assert "subalgebra-dim: 9" in stdout
    sub = Algebra.load(dst)
    assert sub.dim == 9
    coords = ",".join(["1"] + ["0"] * 22)
    code, stdout, _ = run_cli(capsys, "generate", str(src), coords, "1")
    assert code == 0 and "subalgebra-dim: 3" in stdout  # x1, x2, [x1,x2]
    code, _, stderr = run_cli(capsys, "generate", str(src), "nope")
    assert code == 2


COMMANDS = {
    "build": ["build", "free", "2", "3"], "check": ["check", "F", "malcev"],
    "classify": ["classify", "F"], "kernel": ["kernel", "F"], "powers": ["powers", "F"],
    "generate": ["generate", "F", "e1"],
}
# the flags a command does not read, which it refuses: only verify-paper
# reads --seed and --format, only check, classify and verify-paper --jobs
DROPPED = [(command, flag) for command in COMMANDS for flag in ("--seed", "--jobs", "--format")
           if not (flag == "--jobs" and command in ("check", "classify"))]


@pytest.mark.parametrize("command, flag", DROPPED)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = [str(tmp_path / "missing.alg") if a == "F" else a for a in COMMANDS[command]]
    value = {"--seed": "5", "--jobs": "3", "--format": "machine-readable"}[flag]
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, value])
    assert info.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_corrupt_psi_mode_breaks_malcev():
    """Test mode: one corrupted form value makes the Malcev check fail
    with a witness (exercised through the suite session wiring)."""
    from malcevlab.verify import _Session, _check_classification, corrupted_psi_entries

    entries = dict(((w1, w2), v) for w1, w2, v in corrupted_psi_entries())
    assert entries[("[x1,x2]", "[x3,x4]")] == 3
    session = _Session(seed=0, jobs=1, corrupt_psi=True)
    results = {r.key: r for r in _check_classification(session)}
    malcev = results["classify_23.malcev"]
    assert not malcev.passed
    assert any("witness" in d for d in malcev.details)


def test_verify_parser_accepts_flags():
    from malcevlab.cli import _build_parser

    args = _build_parser().parse_args(
        ["verify-paper", "--seed", "3", "--jobs", "2", "--format", "machine-readable", "--corrupt-psi"]
    )
    assert args.seed == 3 and args.jobs == 2 and args.corrupt_psi
    with pytest.raises(SystemExit) as info:
        _build_parser().parse_args(["verify-paper", "--format", "json"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [["check", "F", "malcev"], ["classify", "F"], ["verify-paper"]])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, command, jobs):
    argv = [str(tmp_path / "missing.alg") if a == "F" else a for a in command]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--jobs", jobs])
    assert info.value.code == 2
    assert "error: argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("coords, bad", [
    ("1/0,0,0,0,0,0,0", "'1/0'"),
    ("x,0,0,0,0,0,0", "'x'"),
    ("1,,0,0,0,0,0", "''"),
    ("1" * 5000 + ",0,0,0,0,0,0", "bad coordinate"),
])
def test_malformed_coordinate_is_a_usage_error(tmp_path, capsys, coords, bad):
    src = tmp_path / "o.alg"
    run_cli(capsys, "build", "zoo", "octonion_malcev", "-o", str(src))
    code, stdout, stderr = run_cli(capsys, "generate", str(src), coords)
    assert code == 2 and not stdout
    assert stderr.startswith("error: element") and bad in stderr
