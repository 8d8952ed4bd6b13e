"""The repo's layered benchmark (see bench/README.md and BENCHMARK.json).

``python -m bench run`` measures six workloads from outside the program:
end-to-end metrics from untraced passes, per-layer metrics from one
traced pass whose spans are recorded by wrappers installed from this
package.  Nothing under ``src/`` knows the benchmark exists.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program sitting next to it, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
