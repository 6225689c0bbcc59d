"""Command-line front end.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse errors
and output that cannot be written.
Output is deterministic for a given input and seed: stable line-oriented
`key: value` pairs, and `verify-paper --format machine-readable` emits that
form too.  A command takes only the flags it reads: `--jobs` on check,
classify and verify-paper, `--seed` and `--format` on verify-paper alone.

Each command imports the layers it runs when it runs: start-up loads only
the algebra file format, so `kernel` never loads the identity engine and
`check` never loads the constructions or the certification suite.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import Algebra, AlgebraFormatError, DimensionMismatch, Element, format_sparse
from .rationals import parse_rational


class _UsageError(Exception):
    pass


# the largest `powers --max K`; no product is formed past the power chain's
# settled end, which the chain itself reaches within subspaces.MAX_CHAIN
MAX_POWERS = 100


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _jobs_flag(parser):
    parser.add_argument("--jobs", type=_jobs, default=1, help="parallel workers for tuple enumeration")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="malcevlab",
        description="Exact-arithmetic workbench for finite-dimensional anticommutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an algebra and write its text file")
    p.add_argument("descriptor", nargs="+", help="'paper-example', 'free N C', or 'zoo NAME'")
    p.add_argument("-o", "--output", help="output file (default: derived from the descriptor)")

    p = sub.add_parser("check", help="check an identity (catalog name or DSL) on an algebra file")
    p.add_argument("file")
    p.add_argument("identity", help="catalog name, or DSL 'name : vars | expr = expr'")
    _jobs_flag(p)

    p = sub.add_parser("classify", help="report where an algebra sits in the identity hierarchy")
    p.add_argument("file")
    _jobs_flag(p)

    p = sub.add_parser("verify-paper", help="run the complete certification suite")
    p.add_argument(
        "--corrupt-psi",
        action="store_true",
        help="test mode: corrupt one form value to demonstrate the checks fail",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    _jobs_flag(p)
    p.add_argument(
        "--format",
        choices=("text", "machine-readable"),
        default="text",
        dest="fmt",
        help="output format",
    )

    p = sub.add_parser("kernel", help="compute the Lie kernel of an algebra file")
    p.add_argument("file")

    p = sub.add_parser("powers", help="compute the power chain A, A^2, ...")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=None,
                   help=f"largest power, 1 to {MAX_POWERS} (default: until stable)")

    p = sub.add_parser("generate", help="subalgebra generated by listed elements")
    p.add_argument("file")
    p.add_argument(
        "elements",
        nargs="+",
        help="basis labels, basis indices, or comma-separated coordinate vectors",
    )
    p.add_argument("-o", "--output", help="write the generated subalgebra as an algebra file")

    return parser


def _write(text: str) -> None:
    """Write and flush stdout; a failed write (a closed pipe, a full disk)
    is an input error, exit 2, not a failed check."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit: send what is left
        # to devnull so that it fails no second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _UsageError(f"writing output: {exc}") from exc


def _emit(pairs):
    _write("".join(f"{key}: {value}\n" for key, value in pairs))


def _load(path) -> Algebra:
    try:
        return Algebra.load(path, name=str(path))
    except OSError as exc:
        raise _UsageError(str(exc)) from exc
    except (UnicodeDecodeError, AlgebraFormatError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _save(algebra: Algebra, path) -> None:
    try:
        algebra.save(path)
    except OSError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_build(args) -> int:
    from .construct import BasisCapExceeded, build_descriptor

    try:
        algebra = build_descriptor(args.descriptor)
    except (ValueError, BasisCapExceeded) as exc:
        raise _UsageError(str(exc)) from exc
    out = args.output or f"{'-'.join(args.descriptor)}.alg".replace(" ", "-")
    _save(algebra, out)
    _emit([("file", out), ("dim", algebra.dim), ("labels", " ".join(algebra.labels))])
    return 0


def _resolve_identity(text: str):
    from .identities import builtin_catalog, parse_identity

    if "|" in text:
        return parse_identity(text)
    catalog = builtin_catalog()
    if text in catalog:
        return catalog[text].identity
    raise _UsageError(
        f"unknown identity {text!r}; catalog names: {', '.join(catalog)}"
    )


def _cmd_check(args) -> int:
    algebra = _load(args.file)
    ident = _resolve_identity(args.identity)
    from .engine import check_identity

    report = check_identity(algebra, ident, jobs=args.jobs)
    pairs = [
        ("identity", ident.name),
        ("checked-form", report.identity.to_dsl()),
        ("algebra", f"{args.file} (dim {algebra.dim})"),
        ("status", report.status),
        ("tuples", report.tuples_checked),
    ]
    if report.counterexample is not None:
        cx = report.counterexample
        labels = ", ".join(algebra.labels[i] for i in cx.indices)
        pairs.append(("witness", f"({labels})"))
        pairs.append(("residual", algebra.format_element(cx.residual)))
    _emit(pairs)
    return 0 if report.ok else 1


def _cmd_classify(args) -> int:
    from .classify import classify

    algebra = _load(args.file)
    verdict = classify(algebra, jobs=args.jobs)
    pairs = [("algebra", f"{args.file} (dim {algebra.dim})")]
    pairs.extend(verdict.summary())
    for name, cx in sorted(verdict.witnesses.items()):
        pairs.append((f"witness.{name}", cx.describe(algebra)))
    _emit(pairs)
    return 0


def _cmd_verify(args) -> int:
    from .verify import render_machine, render_text, run_suite, suite_passed

    results = run_suite(seed=args.seed, jobs=args.jobs, corrupt_psi=args.corrupt_psi)
    render = render_machine if args.fmt == "machine-readable" else render_text
    _write(render(results, args.seed, args.jobs))
    return 0 if suite_passed(results) else 1


def _cmd_kernel(args) -> int:
    from .subspaces import lie_kernel

    algebra = _load(args.file)
    kernel = lie_kernel(algebra)
    pairs = [
        ("algebra", f"{args.file} (dim {algebra.dim})"),
        ("kernel-dim", kernel.dim),
    ]
    for t, row in enumerate(kernel.sparse_rows):
        pairs.append((f"row.{t}", format_sparse(row)))
    _emit(pairs)
    return 0


def _cmd_powers(args) -> int:
    from .subspaces import UnsettledChainError, is_nilpotent, power_chain, stable_powers

    if args.max is not None and not 1 <= args.max <= MAX_POWERS:
        raise _UsageError(f"--max {args.max} is outside 1..{MAX_POWERS}")
    algebra = _load(args.file)
    try:
        chain = stable_powers(algebra) if args.max is None else power_chain(algebra, args.max)
        nil, cls = is_nilpotent(algebra)
    except UnsettledChainError as exc:
        raise _UsageError(str(exc)) from exc
    pairs = [("algebra", f"{args.file} (dim {algebra.dim})")]
    for k, space in enumerate(chain, start=1):
        pairs.append((f"power.{k}", space.dim))
    pairs.append(("nilpotent", "yes" if nil else "no"))
    if nil:
        pairs.append(("class", cls))
    _emit(pairs)
    return 0


def _parse_element(algebra: Algebra, text: str) -> Element:
    if text in algebra.labels:
        return algebra.basis_element(algebra.labels.index(text))
    if "," in text:
        coords = []
        for part in text.split(","):
            try:
                coords.append(parse_rational(part))
            except ValueError:
                raise _UsageError(f"element {text!r}: bad coordinate {part!r}") from None
        if len(coords) != algebra.dim:
            raise _UsageError(
                f"element {text!r} has {len(coords)} coordinates, algebra has dim {algebra.dim}"
            )
        return algebra.element(coords)
    try:
        index = int(text)
    except ValueError:
        raise _UsageError(f"unknown element {text!r}: not a label, index, or coordinate vector")
    if not 0 <= index < algebra.dim:
        raise _UsageError(f"basis index {index} out of range")
    return algebra.basis_element(index)


def _cmd_generate(args) -> int:
    from .subspaces import subalgebra_generate

    algebra = _load(args.file)
    gens = [_parse_element(algebra, text) for text in args.elements]
    subspace, restricted = subalgebra_generate(algebra, gens)
    pairs = [
        ("algebra", f"{args.file} (dim {algebra.dim})"),
        ("generators", len(gens)),
        ("subalgebra-dim", subspace.dim),
        ("basis", " ".join(restricted.labels)),
    ]
    if args.output:
        _save(restricted, args.output)
        pairs.append(("file", args.output))
    _emit(pairs)
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "verify-paper": _cmd_verify,
    "kernel": _cmd_kernel,
    "powers": _cmd_powers,
    "generate": _cmd_generate,
}


def _layer_errors():
    # evaluated only when an exception reaches main's handler, so a command
    # that never parses an identity never loads the identities layer; only a
    # loaded engine can have raised ScanBudgetExceeded, so none is loaded here
    from .identities import IdentityError

    engine = sys.modules.get(f"{__package__}.engine")
    return (IdentityError, engine.ScanBudgetExceeded) if engine else (IdentityError,)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, AlgebraFormatError, DimensionMismatch, *_layer_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
