import contextlib
import os
import sys
import warnings

import pytest
from hypothesis import settings

from conepit import extraction

# When a property fails, hypothesis's pytest plugin imports this module,
# and through it libcst, which warns that mypy_extensions.TypedDict is
# deprecated.  pyproject.toml turns DeprecationWarning into an error, so
# the import would stop the session with INTERNALERROR and hide the
# failure; importing it once here, with that one warning ignored, lets the
# failure print its falsifying example and the rest of the suite run.
# Without libcst the plugin never imports the module, so there is nothing
# to do.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

sys.path.insert(0, os.path.dirname(__file__))

# The same examples on every run, and none replayed from a local database,
# so a pass or failure of the property tests repeats exactly.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_cache(monkeypatch):
    """Swap an empty cache in for extraction's shared one, which comes back
    after the test.  The fixture is the swap: each call puts in another
    empty cache and returns it, so a property test can start every example
    cold."""

    def swap():
        monkeypatch.setattr(extraction, "_cache", extraction._Cache())
        return extraction._cache

    return swap
