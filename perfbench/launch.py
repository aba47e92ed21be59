"""Run one command and write down its wall time and resource use.

    python3 perfbench/launch.py REPORT -- COMMAND...

The command inherits this process's stdin, stdout and stderr.  REPORT gets
one JSON object: ``returncode``, ``wall_s``, ``cpu_s`` (user + system of the
command and of the children it reaped, such as pool workers) and
``maxrss_kb`` (the largest peak RSS among them).

``run.py`` starts every operation through this small process because Linux
carries a parent's peak RSS into a child across exec: started straight
from the benchmark process, which holds networkx and the query stream,
every operation would report at least the benchmark's own footprint.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    report, sep, *command = sys.argv[1:]
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    code = subprocess.call(command)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(report, "w") as out:
        json.dump({
            "returncode": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
