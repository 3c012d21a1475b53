"""Start ``repro-chem <verb> ...`` with the layer probes installed.

Usage: ``PERFBENCH_PROBE_DIR=DIR python3 perfbench/launch.py <verb> [args]``.
The traced pass of a workload starts its worker agents this way so fits and
traversals inside them are counted (see :mod:`perfbench.probes`).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import probes  # noqa: E402
from repro import cli  # noqa: E402

if __name__ == "__main__":
    probes.install(os.environ[probes.PROBE_DIR_ENV])
    sys.exit(cli.main(sys.argv[1:]))
