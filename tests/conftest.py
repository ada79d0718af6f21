"""Hypothesis profiles: `ci` replays the same examples on every run.

Select one with HYPOTHESIS_PROFILE (for example HYPOTHESIS_PROFILE=ci);
without it the default profile draws fresh examples each run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
