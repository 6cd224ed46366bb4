"""The benchmark tracer (bench/spans.py) finds its functions by module and
name.  A traced module that `import graphon_decode` no longer loads makes
`Tracer.install` raise KeyError; a renamed function makes its per-layer
metric read 0 without any error.  These tests catch both from the package
side; they read bench/spans.py and change nothing under bench/."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import graphon_decode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def test_package_import_loads_every_traced_module():
    # a fresh interpreter, because other tests in this run import submodules directly
    src = str(Path(graphon_decode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, {spans.PACKAGE}; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    missing = [m for m in spans.TRACED_MODULES if f"{spans.PACKAGE}.{m}" not in loaded]
    assert not missing


def test_every_self_group_name_is_a_public_function_of_its_module():
    for metric, names in spans.SELF_GROUPS.items():
        for name in names:
            short, attr = name.split(".")
            assert short in spans.TRACED_MODULES, f"{metric}: {name}"
            module = importlib.import_module(f"{spans.PACKAGE}.{short}")
            value = getattr(module, attr, None)
            assert not attr.startswith("_") and inspect.isfunction(value), f"{metric}: {name}"
            assert value.__module__ == module.__name__, f"{metric}: {name} is imported, not defined"
