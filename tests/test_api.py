"""The package namespace: one public-API list per submodule."""

import importlib
from types import ModuleType

import rototrap

# the library modules whose names the package re-exports; the command line
# front end is not among them
_SUBMODULES = (
    "errors",
    "gravity",
    "invariants",
    "modes",
    "numerics",
    "quantum",
    "stability",
    "trap",
    "verify",
)


def test_package_exports_exactly_the_submodule_all_lists():
    listed = {}
    for sub in _SUBMODULES:
        mod = importlib.import_module(f"rototrap.{sub}")
        for name in mod.__all__:
            assert getattr(rototrap, name, None) is getattr(mod, name), (sub, name)
            listed[name] = sub
    public = {
        name
        for name, value in vars(rototrap).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public - set(listed)) == []
