"""``python -m benchmarks.e2e``: the same command as ``benchmarks/e2e/run.py``."""

import runpy
from pathlib import Path

runpy.run_path(str(Path(__file__).with_name("run.py")), run_name="__main__")
