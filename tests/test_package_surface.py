"""The lazy package surface (``repro._exports``): every exported name
resolves, star-imports work, and a cold import of one module loads only
what that module imports.

The fresh-interpreter checks compare module sets, not timings.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
SUBPACKAGES = ("core", "graphs", "logs", "regex", "service", "sparql", "store", "testing", "trees")
PACKAGES = ("repro",) + tuple(f"repro.{name}" for name in SUBPACKAGES)


def _submodules(package):
    return [info.name for info in pkgutil.iter_modules(package.__path__) if info.name != "__main__"]


def _loaded_after(statement: str):
    """The ``repro`` modules loaded after ``statement`` runs in a fresh
    interpreter."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True
    )
    return set(json.loads(out.stdout))


def _subtree_loaded(modules, package):
    return any(m == package or m.startswith(package + ".") for m in modules)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__, name
    assert len(set(package.__all__)) == len(package.__all__)
    for attr in package.__all__:
        value = getattr(package, attr)
        if name != "repro":
            # an export never comes back as the submodule of the same name
            assert not isinstance(value, types.ModuleType), (name, attr)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in package.__all__:
        assert namespace[attr] is getattr(package, attr)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_exports_and_submodules(name):
    package = importlib.import_module(name)
    listed = set(dir(package))
    assert set(package.__all__) - {"__version__"} <= listed
    assert set(_submodules(package)) <= listed


def test_every_submodule_is_in_its_table():
    # a fresh interpreter, where importing a package imports none of its
    # submodules, so dir() lists a submodule only if the table names it
    _loaded_after(
        "import importlib, pkgutil\n"
        f"for name in {PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    missing = {i.name for i in pkgutil.iter_modules(package.__path__)} - {'__main__'} - set(dir(package))\n"
        "    assert not missing, (name, missing)"
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_submodules_resolve_as_attributes(name):
    package = importlib.import_module(name)
    for sub in _submodules(package):
        if name == "repro" or sub not in package.__all__:
            assert getattr(package, sub) is importlib.import_module(f"{name}.{sub}")


def test_names_are_the_defining_modules_objects():
    from repro.sparql import parse_query
    from repro.trees import DTD

    assert repro.trees.DTD is repro.trees.dtd.DTD is DTD
    assert parse_query is repro.sparql.parser.parse_query
    assert repro.service.ProtocolError is repro.errors.ProtocolError
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="DTDD"):
        getattr(package, "DTDD")
    with pytest.raises(ImportError):
        exec(f"from {name} import DTDD", {})


def test_tree_modules_load_alone():
    loaded = _loaded_after("import repro.trees.streaming, repro.trees.automata, repro.trees.chunked")
    assert "repro.trees.streaming" in loaded
    for package in ("repro.testing", "repro.logs", "repro.sparql", "repro.service", "repro.store"):
        assert not _subtree_loaded(loaded, package), package


def test_log_pipeline_loads_alone():
    loaded = _loaded_after("import repro.logs.pipeline")
    assert "repro.logs.pipeline" in loaded
    for package in ("repro.testing", "repro.service", "repro.store", "repro.trees"):
        assert not _subtree_loaded(loaded, package), package


def test_bare_package_import_loads_no_submodule():
    assert _loaded_after("import repro") == {"repro", "repro._exports"}


def test_export_named_like_its_submodule_survives_a_sibling_import():
    # repro.testing.shrink is the function, even once a sibling has
    # imported the submodule of the same name
    loaded = _loaded_after(
        "import repro.testing.runner, repro.testing\n"
        "assert callable(repro.testing.shrink)\n"
        "assert repro.testing.shrink is repro.testing.runner.shrink"
    )
    assert "repro.testing.shrink" in loaded
