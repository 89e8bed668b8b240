"""Self-tests import the benchmark's modules the way run.py does."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
