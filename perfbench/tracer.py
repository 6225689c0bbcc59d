"""In-memory spans around malcevlab's public calls, installed from outside.

A span is recorded at each layer boundary: name, start, end and the span
that was open when it started.  Spans stay in memory; the benchmark folds
them into per-pass aggregates.  A span's self time is its duration minus
the part covered by its child spans and by the multiply_sparse calls
charged to it.

Public functions are wrapped where they are bound, not only where they are
defined: ``verify``, ``classify`` and ``cli`` hold their own references to
``check_identity`` and friends, so every malcevlab module whose namespace
holds the original function gets the wrapper.  The verify stages are
wrapped through the entries of ``verify._CHECKS``.

``Algebra.multiply_sparse`` runs millions of times per pass, so it gets no
span of its own: its calls, time, zero results and Fraction operands are
counted and charged to the innermost open span.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

_clock = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Point every malcevlab module binding of `original` at `replacement`."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "malcevlab" or name.startswith("malcevlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Agg:
    __slots__ = ("calls", "self_s", "incl_s", "mul_self", "mul_incl", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.mul_self = 0
        self.mul_incl = 0
        self.extra: dict = {}


class Tracer:
    """Spans plus the multiply_sparse counters, aggregated by span name."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or None)
        self.aggs: dict = {}
        self._stack: list = []       # open frames, innermost last
        # multiply_sparse: calls, seconds, zero results, Fraction operands
        self.mul = [0, 0.0, 0, 0]

    def reset(self) -> None:
        """Start a new pass: keep no spans or totals from the previous one."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.aggs.clear()
        self.mul[:] = [0, 0.0, 0, 0]  # in place: the multiply_sparse wrapper holds it

    def open(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, _clock(), None, parent))
        # frame: name, span index, start, child seconds, mul calls and
        # seconds at open, mul calls and seconds inside child spans
        self._stack.append([name, index, self.spans[index][1], 0.0,
                            self.mul[0], self.mul[1], 0, 0.0])

    def close(self) -> None:
        end = _clock()
        name, index, start, child_s, calls0, mul_s0, child_calls, child_mul_s = self._stack.pop()
        _, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        incl_calls = self.mul[0] - calls0
        incl_mul_s = self.mul[1] - mul_s0
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        agg.calls += 1
        agg.incl_s += duration
        agg.self_s += duration - child_s - (incl_mul_s - child_mul_s)
        agg.mul_incl += incl_calls
        agg.mul_self += incl_calls - child_calls
        if self._stack:
            up = self._stack[-1]
            up[3] += duration
            up[6] += incl_calls
            up[7] += incl_mul_s

    def get(self, name: str) -> _Agg:
        """Totals of span `name` in this pass (all zero if it never ran)."""
        return self.aggs.get(name) or _Agg()

    def count(self, name: str, key: str, amount) -> None:
        """Add to a named counter of span `name` (e.g. tuples decided)."""
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        agg.extra[key] = agg.extra.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_result is not None:
                on_result(tracer, name, result)
            return result

        return traced

    def wrap_stage(self, name: str, stage):
        """Verify stages are generators; the span covers their iteration."""
        tracer = self

        @functools.wraps(stage)
        def traced(session):
            tracer.open(name)
            try:
                yield from stage(session)
            finally:
                tracer.close()

        return traced

    def wrap_multiply_sparse(self, fn):
        counters = self.mul

        @functools.wraps(fn)
        def counted(algebra, u, v):
            t0 = _clock()
            out = fn(algebra, u, v)
            counters[1] += _clock() - t0
            counters[0] += 1
            if not out:
                counters[2] += 1
            for c in u.values():
                if c.__class__ is Fraction:
                    counters[3] += 1
                    break
            else:
                for c in v.values():
                    if c.__class__ is Fraction:
                        counters[3] += 1
                        break
            return out

        return counted


def _count_tuples(tracer, name, report):
    tracer.count(name, "tuples", report.tuples_checked)


def _count_terms(tracer, name, ident):
    tracer.count(name, "terms", len(ident.lhs) + len(ident.rhs))


# Public functions wrapped at every binding, by defining module.
TRACED_FUNCTIONS = {
    "construct": (
        "free_anticommutative", "multilinear_quotient", "central_extension",
        "bilinear_form_from_entries", "multilinear_base_22", "second_type_example",
        "octonion_malcev", "cross_product_algebra", "heisenberg_algebra",
        "abelian_algebra", "zoo", "build_descriptor",
    ),
    "identities": ("parse_identity", "parse_map", "linearize", "builtin_catalog"),
    "engine": (
        "check_identity", "check_skew_symmetric", "evaluate_identity",
        "random_element", "random_substitutions_vanish",
    ),
    "subspaces": (
        "span", "full_space", "product_subspace", "power_chain", "lie_kernel",
        "jacobian_span", "ideal_closure", "quotient_algebra", "subalgebra_generate",
    ),
    "classify": ("classify", "is_nilpotent", "semiprime_witness", "anticommutative_sweep"),
    "verify": ("run_suite", "render_machine", "render_text"),
}

_ON_RESULT = {
    "engine.check_identity": _count_tuples,
    "engine.check_skew_symmetric": _count_tuples,
    "identities.linearize": _count_terms,
}


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced public name, the verify stages, the CLI commands
    and the Algebra methods of the algebra layer."""
    import malcevlab.cli
    from malcevlab import algebra, verify

    for layer, names in TRACED_FUNCTIONS.items():
        module = sys.modules[f"malcevlab.{layer}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            span = f"{layer}.{fn_name}"
            patches.rebind(original, tracer.wrap(span, original, _ON_RESULT.get(span)))

    patches.set(verify, "_CHECKS", tuple(
        tracer.wrap_stage(stage_name(check), check) for check in verify._CHECKS
    ))
    commands = malcevlab.cli._COMMANDS
    patches.set(malcevlab.cli, "_COMMANDS", {
        command: tracer.wrap(f"cli.{command}", fn) for command, fn in commands.items()
    })

    cls = algebra.Algebra
    patches.set(cls, "multiply_sparse", tracer.wrap_multiply_sparse(cls.multiply_sparse))
    patches.set(cls, "to_text", tracer.wrap("algebra.to_text", cls.to_text))
    from_text = cls.__dict__["from_text"].__func__
    patches.set(cls, "from_text", classmethod(tracer.wrap("algebra.from_text", from_text)))


def stage_name(check) -> str:
    return f"verify.stage.{check.__name__.removeprefix('_check_')}"
