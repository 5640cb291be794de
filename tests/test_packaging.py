"""The package metadata lives in ``pyproject.toml`` and nowhere else."""

import os
import sys

import pytest

import repro
from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pyproject():
    if sys.version_info < (3, 11):
        pytest.skip("tomllib needs Python 3.11")
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        return tomllib.load(handle)


def test_console_script_targets_the_cli(pyproject):
    target = pyproject["project"]["scripts"]["repro-spanner"]
    assert target == "repro.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(sys.modules[module], attr) is main


def test_version_is_read_from_the_package(pyproject):
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    source = pyproject["tool"]["setuptools"]["dynamic"]["version"]
    assert source == {"attr": "repro.__version__"}
    assert repro.__version__


def test_packages_are_found_under_src(pyproject):
    assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert pyproject["project"]["requires-python"] == ">=3.10"
