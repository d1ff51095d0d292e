"""Print the set-up time of the hsconvex CLI in this fresh interpreter.

    python3 perfbench/probe.py <checkout root>

Set-up is the time from before `import hsconvex.cli` until the argument
parser is built, that is, until the CLI could take its first request.
Interpreter start-up falls before the clock starts. Nothing else is
imported first, apart from the small reference kernel of speed.py, so the
modules the CLI pulls in are all counted. The second number printed is the
median time of three runs of that kernel right after, which lets run.py
express the set-up time in reference seconds.
"""

import statistics
import sys
import time

import speed

sys.path.insert(0, sys.argv[1] + "/src")
start = time.perf_counter()
import hsconvex.cli  # noqa: E402

hsconvex.cli.build_parser()
setup = time.perf_counter() - start
kernel = statistics.median(speed.time_kernel() for _ in range(3))
print(repr(setup), repr(kernel))
