"""The public names of the package resolve.

``perfbench/tracing.py`` wraps every name in each layer module's
``__all__`` through ``getattr``, so a stale entry there breaks every
traced benchmark run.  The package namespace re-exports a subset of
those names; the names of ``sampling`` it resolves on first use, so that
importing the package does not import numpy.
"""

import importlib
import inspect

import pytest

import qcunlink

LAYERS = ("cli", "polyalg", "exactla", "structure", "gaussmeasure", "unlink", "sampling", "errors")

# package names that resolve to ``sampling`` on first use
LAZY = (
    "McEstimate",
    "correlation_spotcheck",
    "covariance_integral_check",
    "evaluate_float",
    "mc_estimate",
    "sample_values",
)


def layer(name):
    return importlib.import_module(f"qcunlink.{name}")


@pytest.mark.parametrize("name", LAYERS)
def test_layer_all_names_resolve(name):
    module = layer(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_only_layer_names():
    owners = {entry: layer(name) for name in LAYERS for entry in layer(name).__all__}
    exported = [
        entry
        for entry, value in vars(qcunlink).items()
        if not entry.startswith("_") and not inspect.ismodule(value)
    ]
    assert exported
    assert [entry for entry in exported if entry not in owners] == []
    for entry in exported:
        assert getattr(qcunlink, entry) is getattr(owners[entry], entry), entry


def test_package_resolves_sampling_names_on_use():
    sampling = layer("sampling")
    for entry in LAZY:
        assert getattr(qcunlink, entry) is getattr(sampling, entry), entry
    assert qcunlink.divergence_check is layer("unlink").divergence_check
    with pytest.raises(AttributeError, match="no attribute 'sample_covariance'"):
        qcunlink.sample_covariance
