import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# The same examples on every run, and none replayed from a local database,
# so a pass or failure of the property tests repeats exactly.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
