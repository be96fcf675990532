"""Set-up cost in a fresh interpreter: import sltrans, load and validate.

Run by ``run.py`` from the checkout root with the run's manifest; prints
the seconds from just before ``import sltrans`` to the last validation,
then the speed factor (speed.py) from 50 calibration kernels run right
after; sampling during set-up would import NumPy before the clock starts.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import sltrans  # noqa: E402

with open(sys.argv[1]) as fh:
    files = [entry["file"] for entry in json.load(fh)]
for path in files:
    sltrans.validate_problem(sltrans.load_problem(path))
seconds = time.perf_counter() - t0

import speed  # noqa: E402  (this file's directory is on sys.path)

print(seconds, speed.factor([speed.kernel() for _ in range(50)]))
