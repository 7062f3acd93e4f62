"""Fresh-interpreter stand-in for the `proxgrad` console script.

Usage: python3 perfbench/cli_child.py TIMINGS_PATH proxgrad-args...

Runs ``proxgrad.cli.main`` on the remaining arguments, as the installed
console script does, and exits with its code.  It also writes the import
times it saw to TIMINGS_PATH as JSON: ``numpy_import_s`` and
``cli_import_s``, the latter measured after numpy is already loaded.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import proxgrad.cli  # noqa: E402

t2 = time.perf_counter()

if __name__ == "__main__":
    code = proxgrad.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        json.dump({"numpy_import_s": t1 - t0, "cli_import_s": t2 - t1}, fh)
    sys.exit(code)
