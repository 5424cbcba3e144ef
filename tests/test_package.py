import importlib
import sys

import pytest

import gfcperiods


def _home(name: str):
    return importlib.import_module(f"gfcperiods.{gfcperiods._HOME[name]}")


def test_every_public_name_is_its_module_attribute():
    for name in gfcperiods.__all__:
        assert getattr(gfcperiods, name) is getattr(_home(name), name), name


def test_a_public_name_follows_its_module_attribute(monkeypatch):
    # the package binds nothing: a patched module attribute is what it returns
    for name in gfcperiods.__all__:
        marker = object()
        monkeypatch.setattr(_home(name), name, marker)
        assert getattr(gfcperiods, name) is marker, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gfcperiods import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gfcperiods.__all__
    for name, value in namespace.items():
        assert value is getattr(_home(name), name), name
    assert set(gfcperiods.__all__) <= set(dir(gfcperiods))


def test_a_submodule_is_an_attribute_before_it_is_imported(monkeypatch):
    # importing a submodule binds it on the package; until then the name is
    # looked up on access, as when importing the package imported them all
    for module in ("curve", "homology", "contour", "quad", "periods", "lattice", "oracle", "errors"):
        importlib.import_module(f"gfcperiods.{module}")
        monkeypatch.delattr(gfcperiods, module)
        assert getattr(gfcperiods, module) is sys.modules[f"gfcperiods.{module}"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'gfcperiods' has no attribute 'no_such_name'"):
        gfcperiods.no_such_name
    assert not hasattr(gfcperiods, "no_such_name")


def test_the_public_names_are_pinned():
    # a new export is a deliberate change to this list
    assert sorted(gfcperiods.__all__) == [
        "BranchState",
        "ConjComm",
        "CrosscheckReport",
        "CurveSpec",
        "FormIndex",
        "LatticeBasis",
        "PeriodMatrix",
        "Power",
        "QuadConfig",
        "WordIntegrator",
        "agm_elliptic_periods",
        "assemble",
        "base_integrals",
        "beta_closed_form",
        "conjugation_phase",
        "crosscheck_report",
        "default_base_point",
        "enumerate_forms",
        "enumerate_generators",
        "expand",
        "extract_basis",
        "genus",
        "init_branch",
        "lattice_rank",
        "period_entry",
        "real_split",
        "validate_spec",
    ]
    for name in ("Path", "integrate_smooth", "loop_path"):
        with pytest.raises(AttributeError):
            getattr(gfcperiods, name)
