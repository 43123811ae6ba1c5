"""Set-up probe: a fresh interpreter imports fracon and builds a case list.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``time.monotonic()`` once both are done.  The caller reads the
clock before starting this process, so the difference is the set-up a
user pays before the first case runs (interpreter start, imports, case
generation).
"""

import sys
import time

from run import build_cases, import_program

import_program()
build_cases(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
