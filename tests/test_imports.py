"""Each novnet module, imported alone in a fresh interpreter, loads only
the novnet modules it imports itself.

The package exports only `__version__`, so it imposes no import order:
a module that cannot be imported first (an import cycle) fails here too.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import novnet

# The novnet modules each module loads, itself included.
CLOSURES = {
    "errors": {"errors"},
    "losses": {"losses"},
    "nn_core": {"nn_core", "errors"},
    "data_io": {"data_io", "errors"},
    "filter_analysis": {"filter_analysis", "errors"},
    "dual_trainer": {"dual_trainer", "data_io", "errors", "losses", "nn_core"},
    "novelty_eval": {"novelty_eval", "dual_trainer", "data_io", "errors", "losses", "nn_core"},
    "experiments": {"experiments", "novelty_eval", "dual_trainer", "data_io", "errors", "losses", "nn_core"},
    "cli": {"cli", "experiments", "filter_analysis", "novelty_eval", "dual_trainer", "data_io", "errors",
            "losses", "nn_core"},
}


def loaded_after(statement: str) -> tuple[set[str], list[str]]:
    """The novnet modules in sys.modules, and the package's public names,
    after `statement` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(novnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (f"{statement}\nimport sys\n"
             "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('novnet.'))))\n"
             "print(' '.join(sorted(n for n in vars(sys.modules['novnet']) if not n.startswith('_'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    modules, names = out.stdout.split("\n")[:2]
    return set(modules.split()), names.split()


def test_table_covers_every_module():
    assert {m.name for m in pkgutil.iter_modules(novnet.__path__)} == set(CLOSURES)
    assert CLOSURES["cli"] == set(CLOSURES)


def test_package_exports_only_its_version():
    modules, names = loaded_after("import novnet")
    assert modules == set() and names == []
    assert isinstance(novnet.__version__, str)


@pytest.mark.parametrize("module", sorted(CLOSURES))
def test_module_loads_only_its_imports(module):
    modules, names = loaded_after(f"import novnet.{module}")
    assert modules == CLOSURES[module]
    # A submodule is bound on the package as it loads; no other name is.
    assert set(names) == modules
