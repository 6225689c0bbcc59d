import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from malcevlab import engine
from malcevlab.algebra import Algebra
from malcevlab import (
    free_anticommutative,
    multilinear_base_22,
    second_type_example,
    zoo,
)


@pytest.fixture(scope="session")
def atilde():
    return second_type_example()


@pytest.fixture(scope="session")
def base22():
    return multilinear_base_22()


@pytest.fixture(scope="session")
def animals():
    return zoo()


@pytest.fixture(scope="session")
def free44():
    return free_anticommutative(4, 4)


@pytest.fixture
def force_pool(monkeypatch):
    # the pool serves unpruned scans (non-nilpotent algebras) of at least
    # _PARALLEL_THRESHOLD tuples; the octonion checks have 7^4, so lower it
    # to make these tests exercise the pool path
    monkeypatch.setattr(engine, "_PARALLEL_THRESHOLD", 1)


def count_products(fn, *args) -> int:
    """The number of Algebra.multiply_sparse calls that fn(*args) makes."""
    calls = 0
    multiply = Algebra.multiply_sparse

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return multiply(self, u, v)

    with mock.patch.object(Algebra, "multiply_sparse", counted):
        fn(*args)
    return calls


SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ADDRESS_SPACE = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child `python`: this one with src first on
    PYTHONPATH, so the child imports malcevlab from this checkout whether
    or not it is installed."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def capped_python(child_env):
    """Run `python ARGS...` in a child whose address space is capped at
    1 GiB: a test of a size bound then fails by a MemoryError, never by
    allocating the size it tests."""
    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=child_env, timeout=120, preexec_fn=_cap_address_space)
    return run
