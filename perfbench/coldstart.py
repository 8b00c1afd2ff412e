"""Cold start of one workload's preparation in a fresh interpreter.

``python3 perfbench/coldstart.py <workload> <seed> <registry>`` imports
the program and runs the workload module's ``prepare`` (compile the
scenarios; train and save any checkpoints it needs into ``registry``).
The parent times the whole process: that wall time is one sample of
the workload's ``setup_s``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import common

if __name__ == "__main__":
    workload, seed, registry = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    common.scrub_environment()
    importlib.import_module(f"wl_{workload}").prepare(seed, registry)
