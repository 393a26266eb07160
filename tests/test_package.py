import importlib

import pytest

import depmark
from conftest import REPO_ROOT

MODULES = ("model", "lang", "solve", "analysis", "simulate")


def test_public_names_are_the_modules_lists():
    names = ["__version__"]
    for module in MODULES:
        names += importlib.import_module(f"depmark.{module}").__all__
    assert depmark.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(depmark, name) is not None
    # the star imports rebind simulate to the function; solve stays the module
    assert depmark.simulate is importlib.import_module("depmark.simulate").simulate
    assert depmark.solve is importlib.import_module("depmark.solve")


def test_dir_lists_every_public_name():
    listed = dir(depmark)
    assert listed == sorted(listed)
    assert set(depmark.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        depmark.no_such_name


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_build_metadata_reads_the_package_version(monkeypatch):
    # one version string: pyproject.toml takes it from depmark.__version__
    from setuptools.config.pyprojecttoml import read_configuration

    monkeypatch.chdir(REPO_ROOT)
    config = read_configuration("pyproject.toml", expand=True)
    assert config["project"]["version"] == depmark.__version__
