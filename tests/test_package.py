"""The public API of `nilbch`, whose names load their submodules lazily."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nilbch

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(nilbch.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", [n for n in nilbch.__all__ if n != "__version__"])
def test_each_public_name_is_its_submodule_object(name):
    module = importlib.import_module(f"nilbch.{nilbch._SOURCE[name]}")
    assert getattr(nilbch, name) is getattr(module, name)


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from nilbch import *", namespace)
    assert set(nilbch.__all__) <= set(namespace)
    assert namespace["__version__"] == "0.1.0"
    assert set(nilbch.__all__) <= set(dir(nilbch))
    assert len(nilbch.__all__) == len(set(nilbch.__all__))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nilbch.no_such_name
    assert not hasattr(nilbch, "_no_such_private")


def test_bch_stays_the_function_after_every_submodule_is_imported():
    # `bch` shadows the submodule of the same name; importing the
    # submodules by name, as the benchmark harness does, must not rebind it
    probe = (
        "import importlib, sys, types, nilbch\n"
        f"for m in {SUBMODULES!r}:\n"
        "    importlib.import_module('nilbch.' + m)\n"
        "assert isinstance(importlib.import_module('nilbch.bch'), types.ModuleType)\n"
        "print(type(nilbch.bch).__name__, nilbch.bch is sys.modules['nilbch.bch'].bch)\n"
    )
    path = [str(Path(nilbch.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "function True\n"
    assert "cli" in SUBMODULES and "growth" in SUBMODULES
