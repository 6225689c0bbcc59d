"""Lazy loading: the package and the CLI import a layer only when a caller
first uses it, and the public API is the same whatever the import order.

Each test runs in a fresh child interpreter, since this process has long
since imported every layer.
"""

import json
import subprocess
import sys

import pytest


def _child(child_env, code: str):
    """The JSON the child prints last."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# the malcevlab submodules the child has loaded, as an expression
LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('malcevlab.'))"


def test_cli_import_loads_no_engine_verify_construct_or_classify(child_env):
    loaded, stdlib = _child(child_env, (
        "import sys, json, malcevlab.cli\n"
        f"print(json.dumps([{LOADED}, 'dataclasses' in sys.modules]))"))
    assert not {"engine", "verify", "construct", "classify"} & set(loaded)
    assert not stdlib  # dataclasses comes with the identity and engine layers


def test_build_loads_no_engine_or_identities(child_env, tmp_path):
    out = tmp_path / "f.alg"
    loaded = _child(child_env, (
        "import io, sys, json, contextlib\n"
        "from malcevlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['build', 'free', '2', '3', '-o', {str(out)!r}]) == 0\n"
        f"print(json.dumps({LOADED}))"))
    assert out.is_file()
    assert not {"engine", "identities"} & set(loaded)


@pytest.mark.parametrize("argv, absent", [
    (["kernel", "F"], {"construct", "engine", "identities", "classify", "verify"}),
    (["powers", "F"], {"construct", "engine", "identities", "classify", "verify"}),
    (["generate", "F", "e1", "e2"], {"construct", "engine", "identities", "classify", "verify"}),
    (["check", "F", "jacobi"], {"construct", "classify", "verify"}),
])
def test_each_command_loads_only_its_layers(child_env, tmp_path, argv, absent):
    path = tmp_path / "h.alg"
    path.write_text("dim 3\nsc 0 1 -> 2:1\n")
    argv = [str(path) if a == "F" else a for a in argv]
    loaded = _child(child_env, (
        "import io, sys, json, contextlib\n"
        "from malcevlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"print(json.dumps({LOADED}))"))
    assert not absent & set(loaded)


def test_an_input_error_loads_no_engine(child_env, tmp_path):
    # main's handler catches the engine's ScanBudgetExceeded only where the
    # engine is loaded: an error before any scan loads no engine for it
    path = tmp_path / "h.alg"
    path.write_text("dim 3\nsc 0 1 -> 2:1\n")
    loaded = _child(child_env, (
        "import io, sys, json, contextlib\n"
        "from malcevlab import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main(['kernel', {str(tmp_path / 'missing.alg')!r}]) == 2\n"
        f"    assert cli.main(['check', {str(path)!r}, 'no_such_identity']) == 2\n"
        f"print(json.dumps({LOADED}))"))
    assert "identities" in loaded and "engine" not in loaded


# The function classify shares its name with its module: whichever is
# imported first, the package attribute stays the function.
IMPORT_ORDERS = [
    "import malcevlab.verify",
    "import malcevlab.classify",
    "import malcevlab.cli",
    "from malcevlab import classify",
    "from malcevlab import classify; import malcevlab.classify",
    "import malcevlab.classify; from malcevlab import TypeVerdict",
]


@pytest.mark.parametrize("first", IMPORT_ORDERS)
def test_classify_stays_the_function_whatever_the_import_order(child_env, first):
    kinds = _child(child_env, (
        f"import json, sys, types\n{first}\n"
        "import malcevlab\n"
        "from malcevlab import classify\n"
        "print(json.dumps([type(malcevlab.classify).__name__, type(classify).__name__,\n"
        "    isinstance(sys.modules['malcevlab.classify'], types.ModuleType)]))"))
    assert kinds == ["function", "function", True]


def test_every_export_resolves_and_is_listed(child_env):
    report = _child(child_env, (
        "import json, malcevlab\n"
        "missing = [n for n in malcevlab.__all__ if getattr(malcevlab, n, None) is None]\n"
        "unlisted = sorted(set(malcevlab.__all__) - set(dir(malcevlab)))\n"
        "try:\n"
        "    malcevlab.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([len(malcevlab.__all__), missing, unlisted, error]))"))
    count, missing, unlisted, error = report
    assert count > 40 and not missing and not unlisted
    assert error == "module 'malcevlab' has no attribute 'no_such_name'"


def test_package_import_loads_no_layer(child_env):
    assert _child(child_env, f"import sys, json, malcevlab; print(json.dumps({LOADED}))") == []
