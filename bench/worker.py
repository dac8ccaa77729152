"""One benchmark worker: a fresh interpreter that sets up a workload and
runs a share of its rounds.

    python3 bench/worker.py <workload> <seed> <workdir> <seconds> <first> <step> <result.json>

Imports trapcoh from the checkout's src/, builds the workload (which loads
its presets), runs one warm-up operation of each kind and prints READY;
run.py times spawn-to-READY as one setup_s sample. It then times three
calibration kernels and, with seconds > 0, runs rounds first, first +
step, ... until that time has passed, and writes their samples, counts
and calibration times to result.json.
"""

import json
import sys
from pathlib import Path

from common import calibrate
from run import Loop, import_trapcoh, make_workload, peak_rss_kb, warm
from tracing import Tracer


def main(argv):
    name, seed, workdir, seconds, first, step, result = argv
    wl = make_workload(name, import_trapcoh(), Tracer(False), int(seed), workdir)
    warm(wl)
    print("READY", flush=True)
    loop = Loop()
    loop.calibration += calibrate()
    if float(seconds) > 0.0:
        loop.run(wl, seconds=float(seconds), first=int(first), step=int(step))
    Path(result).write_text(json.dumps({**loop.state(), "peak_rss_kb": peak_rss_kb(wl)}))


if __name__ == "__main__":
    main(sys.argv[1:])
