"""The public surface of ellwall, pinned: every name without a leading
underscore that the package and each of its modules bind, with its kind
and its shape, against the committed listing tests/public_surface.txt.

Names bound to standard-library objects (`Fraction`, `Optional`, modules
such as `math`) are left out.  To accept a deliberate change, write the
listing anew from the root of a checkout:

    PYTHONPATH=src python3 tests/test_public_surface.py > tests/public_surface.txt
"""

import difflib
import importlib
import inspect
import os
import sys
import types
from dataclasses import is_dataclass

MODULES = ("ellwall",) + tuple("ellwall." + name for name in (
    "charge", "chern", "cli", "destabilize", "errors", "fmtransform", "io", "nslattice", "walls"))
LISTING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "public_surface.txt")


def _foreign(value, name: str) -> bool:
    """Whether value is a module outside ellwall, or an object that its own
    module outside ellwall binds under the same name."""
    if isinstance(value, types.ModuleType):
        return not value.__name__.startswith("ellwall")
    home = getattr(value, "__module__", None)
    if not isinstance(home, str) or home.startswith("ellwall"):
        return False
    return getattr(sys.modules.get(home), name, None) is value


def _shape(value) -> str:
    """The kind of value and what pins it: the signature of a function or
    a record class, the base chain of an exception class, the repr of an
    int or str constant, the type of any other value."""
    if isinstance(value, types.ModuleType):
        return "module " + value.__name__
    if inspect.isclass(value):
        if issubclass(value, BaseException):  # no signature on 3.11
            return "exception " + " < ".join(c.__qualname__ for c in value.__mro__)
        return "%s %s" % ("record" if is_dataclass(value) else "class", inspect.signature(value))
    if isinstance(value, types.FunctionType) or hasattr(value, "__wrapped__"):
        return "function %s" % inspect.signature(value)
    if type(value) in (int, str):
        return "%s %r" % (type(value).__name__, value)
    return "value of type " + type(value).__qualname__


def listing() -> list:
    """One line per name.  Every module is imported first, so the package
    binds each of its submodules whatever the tests before imported."""
    modules = [importlib.import_module(name) for name in MODULES]
    lines = []
    for module_name, module in zip(MODULES, modules):
        for name, value in sorted(vars(module).items()):
            if not name.startswith("_") and not _foreign(value, name):
                lines.append("%s.%s: %s" % (module_name, name, _shape(value)))
    return lines


def test_public_surface_matches_the_listing():
    with open(LISTING, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    now = listing()
    diff = "\n".join(difflib.unified_diff(pinned, now, "public_surface.txt", "now", lineterm=""))
    assert now == pinned, "the public surface moved:\n" + diff


if __name__ == "__main__":
    print("\n".join(listing()))
