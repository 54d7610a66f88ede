"""Test session setup: the chain cache lives in the repository.

Tests that do not set RCT_CACHE_DIR themselves would read and write the
user's cache (~/.cache/rct).  When the variable is unset or empty, it
points at `.rct_cache/` in the repository root (ignored by git), for this
process and the rct processes the tests start.  Delete that directory
for a cold run.
"""

import os
from pathlib import Path

if not os.environ.get("RCT_CACHE_DIR"):
    root = Path(__file__).resolve().parents[1]
    os.environ["RCT_CACHE_DIR"] = str(root / ".rct_cache")
