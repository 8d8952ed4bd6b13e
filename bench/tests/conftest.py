"""``pytest bench/tests`` — the benchmark's own tests (not tier-1)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import use_checkout_sources  # noqa: E402

use_checkout_sources()
