"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
one JSON object: ``setup_s`` (imports plus building the workload's
state), ``import_s`` and the parts the workload's ``setup`` timed.
"""

import importlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import benchlib  # noqa: E402  (path set above; not part of the timing)

start = time.perf_counter()
module = importlib.import_module(benchlib.WORKLOADS[sys.argv[1]])
imported = time.perf_counter()
parts = module.setup(int(sys.argv[2]))
parts["setup_s"] = time.perf_counter() - start
parts["import_s"] = imported - start
print(json.dumps(parts))
