"""Planted faults: a package function rebuilt from its source with one
deliberate edit (mutation analysis; DeMillo, Lipton and Sayward, IEEE
Computer 1978).

Each edit is ``(before, after)``, or ``(before, after, count)`` when
``before`` occurs ``count`` times rather than once.  The count is asserted
before the edit is made, so a plant whose text has drifted from the source
fails loudly instead of planting nothing.
"""

import inspect
import sys


def planted(function, *edits, **overrides):
    """``function`` with each edit made to its source, executed in a copy of
    its module's namespace with ``overrides`` set, so that the names it
    reads resolve as in the package except those overridden."""
    source = inspect.getsource(function)
    for before, after, *count in edits:
        assert source.count(before) == (count[0] if count else 1), before
        source = source.replace(before, after)
    namespace = dict(vars(sys.modules[function.__module__]), **overrides)
    exec(source, namespace)
    return namespace[function.__name__]


def plant(monkeypatch, function, *edits, into, **overrides):
    """``planted(function, *edits, **overrides)``, bound in place of
    ``function`` in each module of ``into`` until the test ends."""
    fault = planted(function, *edits, **overrides)
    for module in into:
        monkeypatch.setattr(module, function.__name__, fault)
    return fault
