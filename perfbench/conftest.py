"""Run the benchmark's self-checks against this checkout's ``src/``."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
