import dataclasses
import importlib
import pkgutil

import steerlab
from steerlab.uncertainty import GaussianBeamProfile

# Public names removed from the package; none may come back half-way.
DELETED = {
    "coherent": ("fock_probability",),
    "uncertainty": ("superposed_gaussians", "dimensional_variance_product"),
}


def test_every_exported_name_resolves_and_deleted_names_are_gone():
    modules = {"": steerlab}
    for info in pkgutil.iter_modules(steerlab.__path__):
        modules[info.name] = importlib.import_module(f"steerlab.{info.name}")
    for label, module in modules.items():
        for name in module.__all__:
            assert hasattr(module, name), f"steerlab.{label}: {name}"
    for label, names in DELETED.items():
        for name in names:
            assert not hasattr(modules[label], name), f"steerlab.{label}: {name}"
            assert name not in modules[label].__all__
            assert name not in steerlab.__all__
    assert [f.name for f in dataclasses.fields(GaussianBeamProfile)] == ["x0", "k0", "sigma_x"]
    for name in ("is_minimum_uncertainty", "effective_sigma_p"):
        assert not hasattr(GaussianBeamProfile, name)
