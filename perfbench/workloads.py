"""The benchmark's workloads.

Each workload is a closed loop with one client: it makes one public call
(or one CLI invocation) at a time and waits for the answer before making
the next.  `setup` generates the inputs from the seed and constructs (and
rebases) the algebras: that is all setup_s times.  `reference` computes,
once and untimed, what the oracle compares with; `run_pass` does the timed
work and appends each operation's latency to `ops`; `check` compares the
outputs with the reference and returns one failure message per failed
operation.

Why these three:

- paper_suite: the certificate itself.  Engine scans over the nilpotent,
  integral 23-dimensional example dominate it, so this is where filtration
  pruning, term canonicalization and session caching show.
- rational_rebased: exact Fraction arithmetic after a rational change of
  basis.  Its engine half checks the octonion Malcev algebra, which is not
  nilpotent, so pruning has nothing to skip there (prediction: no change);
  its subspace half runs the echelon calculus on the 23-dimensional example
  in a basis that breaks its grading, with no engine work at all.
- cli_quickstart: the README quick start as separate processes, where
  interpreter start and import dominate most invocations and the fork pool
  (`--jobs 2`) sets the tail.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

# Public functions are looked up on the package at call time, so that the
# tracer's wrappers, installed after this import, also see these calls.
import malcevlab as ml
import malcevlab.cli
from malcevlab import Element, Subspace, verify

from rebase import Rebased, seeded_basis
from tracer import stage_name

_clock = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _timed(ops, fn, *args):
    t0 = _clock()
    result = fn(*args)
    ops.append(_clock() - t0)
    return result


class Workload:
    name = ""
    # spans a traced run must record at least once (see tracer.py)
    required_spans: tuple = ()

    def __init__(self, patches):
        pass

    def trace_metrics(self, state) -> dict:
        """Extra per-layer figures, measured inside the traced pass."""
        return {}

    def close(self) -> None:
        pass


# -- paper_suite -------------------------------------------------------------

# The verify-paper stages one pass runs.  The whole suite takes about 95 s
# on a 2-core machine, longer than one benchmark run may take, so a pass is
# the certificate (malcev and the second-type pair hold, first_type_4/5 fail
# with the -3*v witness) and the structure theorems.
PAPER_STAGES = ("construction", "witness", "classification", "structure_suite", "fourth_power")
# Result keys those stages produce in the golden report.
PAPER_KEY_PREFIXES = ("construction", "witness_3v", "classify_23.", "structure.")
GOLDEN = BENCH_DIR / "golden" / "verify_seed0.txt"


def _report_blocks(text: str) -> dict:
    """Machine-readable report -> {check key: its lines, from 'check:' on}."""
    blocks: dict = {}
    key = None
    for line in text.splitlines(keepends=True):
        if line.startswith("check: "):
            key = line[len("check: "):].rstrip("\n")
            blocks[key] = ""
        elif line.startswith("checks: "):
            key = None
        if key is not None:
            blocks[key] += line
    return blocks


class PaperSuite(Workload):
    """run_suite(seed, jobs=1) over PAPER_STAGES, then render_machine.

    An operation is one public call the suite makes through verify's own
    bindings (check_identity, power_chain, jacobian_span, ...).  The
    rendered report must equal, byte for byte, the golden report of
    `verify-paper --seed 0` restricted to these stages: none of them
    depends on the seed, which appears only in the header.
    """

    name = "paper_suite"
    required_spans = tuple(f"verify.stage.{s}" for s in PAPER_STAGES) + (
        "verify.run_suite", "verify.render_machine", "engine.check_identity",
        "engine.evaluate_identity", "identities.linearize", "identities.parse_identity",
        "subspaces.power_chain", "subspaces.lie_kernel", "subspaces.jacobian_span",
        "subspaces.product_subspace", "subspaces.quotient_algebra",
        "subspaces.subalgebra_generate", "classify.is_nilpotent",
        "construct.free_anticommutative", "construct.second_type_example",
    )

    def __init__(self, patches):
        self.ops: list = []
        for attr, value in list(vars(verify).items()):
            if inspect.isfunction(value) and value.__module__ != "malcevlab.verify" \
                    and value.__module__.startswith("malcevlab."):
                patches.set(verify, attr, self._op(value))

    def _op(self, fn):
        def timed(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ops.append(_clock() - t0)

        return timed

    def setup(self, seed: int) -> dict:
        # run_suite constructs its own algebras; set-up constructs the ones
        # the certificate is about, which the oracle re-evaluates
        return {"seed": seed, "algebra": ml.second_type_example(),
                "catalog": ml.builtin_catalog()}

    def reference(self, state) -> dict:
        blocks = [b for k, b in _report_blocks(GOLDEN.read_text()).items()
                  if k.startswith(PAPER_KEY_PREFIXES)]
        expected = (f"suite: malcevlab-verify\nseed: {state['seed']}\njobs: 1\n"
                    + "".join(blocks)
                    + f"checks: {len(blocks)}\nfailures: 0\nresult: pass\n")
        # the golden certificate, recomputed through the dense path
        at = state["algebra"]
        ident = state["catalog"]["first_type_5"].identity
        x = {v: at.basis_element(i) for i, v in enumerate(ident.variables)}
        witness = at.format_element(ml.evaluate_identity(at, ident, x))
        return {"expected": expected, "checks": len(blocks), "witness": witness}

    def run_pass(self, state, ops):
        self.ops = ops
        saved = verify._CHECKS
        verify._CHECKS = tuple(c for c in saved if stage_name(c) in self.required_spans)
        try:
            results = ml.run_suite(state["seed"], jobs=1)
        finally:
            verify._CHECKS = saved
        return results, verify.render_machine(results, state["seed"], 1)

    def check(self, state, ref, outputs):
        results, text = outputs
        failures = [f"{r.key}: check failed" for r in results if not r.passed]
        if len(results) != ref["checks"]:
            failures.append(f"{len(results)} checks, expected {ref['checks']}")
        if ref["witness"] != "-3*v":
            failures.append(f"dense re-evaluation gives {ref['witness']}, expected -3*v")
        if text != ref["expected"]:
            got, want = _report_blocks(text), _report_blocks(ref["expected"])
            bad = [k for k in want if got.get(k) != want[k]] or ["header or footer"]
            failures.extend(f"{k}: report differs from the golden report" for k in bad)
        return failures


# -- rational_rebased ----------------------------------------------------------

# Up to the seeded signs: f1 = e1 + e2/2, f3 = e3 + e4/2, f5 = e5 + e6/2 on
# the octonion algebra; f_{i+1} = e_{i+1} + e_i/2 on the 23-dimensional
# example, where each basis vector picks up its predecessor, so the new
# basis mixes degrees and the structure constants fill in (about 1140
# nonzero entries against 27).  Fully dense changes of basis cost 10-15 s
# per exhaustive octonion check and over a minute for lie_kernel alone.
HALF = Fraction(1, 2)
OCTONION_PATTERN = ((0, 1), (2, 3), (4, 5))
STRUCTURE_PATTERN = tuple((i + 1, i) for i in range(22))
SKEW_MAPS = (
    ("xi", "x1,x2,x3,x4 | J(x1,x2,x3*x4)"),
    ("zeta", "x1,x2,x3,x4 | J(x1,x2,x3)*x4"),
)
# Generator triples for subalgebra_generate, fixed in the original basis
# (not seeded) so that every seed does the same work.
TRIPLES = 16
TRIPLE_SEED = "rational_rebased:triples"


class RationalRebased(Workload):
    """After a seeded rational change of basis: every catalog identity and
    the skew-symmetry of two Jacobian maps, checked exhaustively on the
    octonion Malcev algebra; then power_chain, lie_kernel, jacobian_span,
    ideal_closure, quotient_algebra and subalgebra_generate on the
    23-dimensional example.

    The oracle is basis invariance: verdicts match the original basis,
    every failing witness re-verifies through the dense evaluate_identity,
    the power dimensions are 23/19/13/1/0, the kernel has dimension 13,
    J(A,A,A) dimension 5, and every subspace, mapped back to the original
    basis, equals the one computed there.
    """

    name = "rational_rebased"
    required_spans = ("engine.check_identity", "engine.check_skew_symmetric",
                      "identities.linearize") + tuple(f"subspaces.{f}" for f in (
                          "power_chain", "lie_kernel", "full_space", "jacobian_span",
                          "ideal_closure", "quotient_algebra", "subalgebra_generate"))

    def setup(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        octonion = Rebased(ml.octonion_malcev(), seeded_basis(7, OCTONION_PATTERN, HALF, rng))
        at = ml.second_type_example()
        rb = Rebased(at, seeded_basis(at.dim, STRUCTURE_PATTERN, HALF, rng))
        triple_rng = random.Random(TRIPLE_SEED)
        originals = [[ml.random_element(at, triple_rng) for _ in range(3)]
                     for _ in range(TRIPLES)]
        return {"octonion": octonion,
                "identities": [entry.identity for entry in ml.builtin_catalog().values()],
                "maps": [ml.parse_map(src, name=name) for name, src in SKEW_MAPS],
                "rebased": rb, "originals": originals,
                "triples": [[Element(rb.from_original(g)) for g in t] for t in originals]}

    def reference(self, state) -> dict:
        """Verdicts and subspaces in the original bases."""
        octonion, at = state["octonion"].original, state["rebased"].original
        verdicts = {ident.name: ml.check_identity(octonion, ident).status
                    for ident in state["identities"]}
        verdicts.update({m.name: ml.check_skew_symmetric(octonion, m).status
                         for m in state["maps"]})
        full = ml.full_space(at)
        jspan = ml.jacobian_span(at, full, full, full)
        return {
            "verdicts": verdicts,
            "chain": ml.power_chain(at, 5),
            "kernel": ml.lie_kernel(at),
            "jspan": jspan,
            "ideal": ml.ideal_closure(at, jspan),
            "generated": [ml.subalgebra_generate(at, t)[0] for t in state["originals"]],
        }

    def run_pass(self, state, ops):
        octonion = state["octonion"].algebra
        reports = [_timed(ops, ml.check_identity, octonion, ident)
                   for ident in state["identities"]]
        reports += [_timed(ops, ml.check_skew_symmetric, octonion, m) for m in state["maps"]]
        alg = state["rebased"].algebra
        chain = _timed(ops, ml.power_chain, alg, 5)
        kernel = _timed(ops, ml.lie_kernel, alg)
        full = _timed(ops, ml.full_space, alg)
        jspan = _timed(ops, ml.jacobian_span, alg, full, full, full)
        ideal = _timed(ops, ml.ideal_closure, alg, jspan)
        quotient, _ = _timed(ops, ml.quotient_algebra, alg, kernel)
        generated = [_timed(ops, ml.subalgebra_generate, alg, t)[0] for t in state["triples"]]
        return {"reports": reports, "chain": chain, "kernel": kernel, "full": full,
                "jspan": jspan, "ideal": ideal, "quotient": quotient, "generated": generated}

    def check(self, state, ref, out):
        octonion, rb = state["octonion"].algebra, state["rebased"]
        failures = []
        for rep in out["reports"]:
            name = rep.identity.name.removesuffix("_linearized")
            if rep.status != ref["verdicts"][name]:
                failures.append(f"octonion {name}: {rep.status}, unlike in the original basis")
            elif rep.ok:
                if rep.tuples_checked != octonion.dim ** len(rep.identity.variables):
                    failures.append(f"octonion {name}: holds after {rep.tuples_checked} tuples")
            elif not _witness_reverified(octonion, rep):
                failures.append(f"octonion {name}: witness does not re-verify")

        def expect(label, got, want):
            if got != want:
                failures.append(f"{label}: {got}, expected {want}")

        def same(label, got, want):
            back = Subspace(rb.original.dim, [rb.to_original(r) for r in got.rows])
            if back != want:
                failures.append(f"{label}: differs from the original basis")

        expect("power_chain dims", [s.dim for s in out["chain"]], [23, 19, 13, 1, 0])
        for k, (got, want) in enumerate(zip(out["chain"], ref["chain"]), start=1):
            same(f"power_chain A^{k}", got, want)
        expect("lie_kernel dim", out["kernel"].dim, 13)
        same("lie_kernel", out["kernel"], ref["kernel"])
        expect("full_space dim", out["full"].dim, 23)
        expect("jacobian_span dim", out["jspan"].dim, 5)
        same("jacobian_span", out["jspan"], ref["jspan"])
        same("ideal_closure", out["ideal"], ref["ideal"])
        expect("quotient_algebra dim", out["quotient"].dim, 10)
        for t, (got, want) in enumerate(zip(out["generated"], ref["generated"])):
            same(f"subalgebra_generate triple {t}", got, want)
        return failures


def _witness_reverified(algebra, rep) -> bool:
    """Re-evaluate a failing witness through the dense evaluate_identity."""
    cx = rep.counterexample
    if cx is None or cx.residual.is_zero():
        return False

    def value(indices):
        basis = {v: algebra.basis_element(i) for v, i in zip(rep.identity.variables, indices)}
        return ml.evaluate_identity(algebra, rep.identity, basis)

    if cx.transposition is None:
        return value(cx.indices) == cx.residual
    i, j = cx.transposition
    swapped = list(cx.indices)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return value(cx.indices) + value(swapped) == cx.residual


# -- cli_quickstart -------------------------------------------------------------

DSL_FIRST_TYPE_5 = "z : x,y,z,u | J(x,y,z)*u = 0"


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


class CliQuickstart(Workload):
    """The README quick start, one `python -m malcevlab.cli` process per
    operation, in a scratch directory inside the benchmark's own.  `build`
    writes the .alg files the other commands read; check and classify on
    the 23-dimensional file use `--jobs 2`."""

    name = "cli_quickstart"
    required_spans = tuple(f"cli.{c}" for c in (
        "build", "classify", "check", "kernel", "powers", "generate")) + (
        "algebra.from_text", "algebra.to_text", "classify.classify",
        "engine.check_identity", "identities.parse_identity", "construct.build_descriptor")

    def __init__(self, patches):
        self.workdir = tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR)
        self.per_command: dict = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        gens = sorted(rng.sample(["x1", "x2", "x3", "x4"], 3))
        built = {
            "atilde.alg": ml.second_type_example(),
            "f.alg": ml.free_anticommutative(2, 3),
            "o.alg": ml.octonion_malcev(),
        }
        a = "atilde.alg"
        # (command, argv, expected exit code, lines stdout must contain)
        commands = (
            ("build", ["build", "paper-example", "-o", a], 0, ["dim: 23"]),
            ("classify", ["classify", a, "--jobs", "2"], 0,
             ["lie: False", "malcev: True", "second_type: True", "first_type: False",
              "witness.first_type_4: (x1, x2, x3, x4) -> -2*v"]),
            ("check", ["check", a, "malcev", "--jobs", "2"], 0,
             ["status: holds", "tuples: 279841"]),
            ("check", ["check", a, "first_type_5", "--jobs", "2"], 1,
             ["status: fails", "residual: -3*v"]),
            ("check", ["check", a, "first_type_5", "--jobs", "1"], 1,
             ["status: fails", "residual: -3*v"]),
            ("check", ["check", a, DSL_FIRST_TYPE_5, "--jobs", "2"], 1, ["residual: -3*v"]),
            ("kernel", ["kernel", a], 0, ["kernel-dim: 13"]),
            ("powers", ["powers", a], 0,
             ["power.1: 23", "power.2: 19", "power.3: 13", "power.4: 1", "power.5: 0",
              "class: 5"]),
            ("generate", ["generate", a, *gens], 0, ["subalgebra-dim: 9"]),
            ("build", ["build", "free", "2", "3", "-o", "f.alg"], 0,
             [f"dim: {built['f.alg'].dim}"]),
            ("build", ["build", "zoo", "octonion_malcev", "-o", "o.alg"], 0, ["dim: 7"]),
            ("check", ["check", "o.alg", "malcev"], 0, ["status: holds", "tuples: 2401"]),
            ("check", ["check", a, "no_such_identity"], 2, []),
        )
        return {"commands": commands, "built": built}

    def reference(self, state) -> dict:
        """The files `build` must write: the in-process constructions' text."""
        return {name: algebra.to_text() for name, algebra in state["built"].items()}

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "malcevlab.cli", *argv], cwd=self.workdir, env=_cli_env(),
            capture_output=True, text=True, timeout=120,
        )

    def run_pass(self, state, ops):
        self.per_command = {}
        outputs = []
        for command, argv, _, _ in state["commands"]:
            t0 = _clock()
            outputs.append(self._run(argv))
            elapsed = _clock() - t0
            ops.append(elapsed)
            self.per_command.setdefault(command, []).append(elapsed)
        return outputs

    def check(self, state, files, outputs):
        failures = []
        stdout = {}
        for (_, argv, code, lines), proc in zip(state["commands"], outputs):
            where = " ".join(argv)
            stdout[tuple(argv)] = proc.stdout
            if proc.returncode != code:
                failures.append(f"{where}: exit {proc.returncode}, expected {code}")
                continue
            got = proc.stdout.splitlines()
            missing = [line for line in lines if line not in got]
            if missing:
                failures.append(f"{where}: stdout lacks {missing}")
            elif code == 2 and "unknown identity" not in proc.stderr:
                failures.append(f"{where}: no usage error on stderr")
        for name, text in files.items():
            if (Path(self.workdir) / name).read_text() != text:
                failures.append(f"build {name}: file differs from the in-process construction")
        a = "atilde.alg"
        if stdout[("check", a, "first_type_5", "--jobs", "2")] != \
                stdout[("check", a, "first_type_5", "--jobs", "1")]:
            failures.append("check first_type_5: stdout differs between --jobs 2 and --jobs 1")
        return failures

    def trace_metrics(self, state) -> dict:
        """Start-up figures, per-command process times, and one in-process
        replay of the pass so that the traced layers see the CLI's work.
        The replay runs every command with --jobs 1: pool workers would be
        forked from this process, and their calls would escape the tracer.
        The pool's cost is in the per-process cli.<command>.ms figures."""
        probe = ("import time; t = time.perf_counter(); import malcevlab.cli; "
                 "print(time.perf_counter() - t)")
        imports, starts = [], []
        for _ in range(5):
            proc = subprocess.run([sys.executable, "-c", probe], env=_cli_env(),
                                  capture_output=True, text=True, check=True, timeout=60)
            imports.append(float(proc.stdout))
            t0 = _clock()
            subprocess.run([sys.executable, "-m", "malcevlab.cli", "--help"], env=_cli_env(),
                           capture_output=True, check=True, timeout=60)
            starts.append(_clock() - t0)
        metrics = {"cli.import_ms": median(imports) * 1e3,
                   "cli.cold_start_ms": median(starts) * 1e3}
        for command, times in self.per_command.items():
            metrics[f"cli.{command}.ms"] = median(times) * 1e3

        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for _, argv, code, _ in state["commands"]:
                if "--jobs" in argv:
                    argv = [*argv]
                    argv[argv.index("--jobs") + 1] = "1"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    if malcevlab.cli.main(argv) != code:
                        raise RuntimeError(f"in-process {' '.join(argv)}: unexpected exit code")
        finally:
            os.chdir(cwd)
        return metrics


WORKLOADS = {w.name: w for w in (PaperSuite, RationalRebased, CliQuickstart)}
