"""The runtime needs numpy alone: the sources import nothing else, and the
package metadata asks for nothing else."""

import ast
import re
import sys
from pathlib import Path

import pytest

import prodspec

PACKAGE = Path(prodspec.__file__).resolve().parent


def imported_roots(path):
    """Top-level names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_import_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = {
        path.name: sorted(imported_roots(path) - sys.stdlib_module_names - {"numpy"})
        for path in sources
    }
    assert {name: roots for name, roots in outside.items() if roots} == {}


def private_imports(path):
    """Underscored names that one source file imports from a sibling module."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_sources_reach_into_other_modules_only_where_pinned():
    # a new import of another module's internals has to be named here
    reaches = {path.stem: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in reaches.items() if names} == {
        "cli": {"_check_rising", "_one_blas_thread", "_ecdf_in_place"}
    }


def names(requirements):
    return [re.match(r"[A-Za-z0-9._-]+", req).group() for req in requirements]


def test_pyproject_lists_numpy_alone_and_scipy_for_the_tests():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_the_package_root_exports_its_public_names_and_no_module():
    # `from prodspec import *` binds the 49 public names, and neither os nor a submodule
    assert len(prodspec.__all__) == len(set(prodspec.__all__)) == 49
    for name in prodspec.__all__:
        assert not isinstance(getattr(prodspec, name), type(sys)), name
