"""Wall times scaled to a reference host speed.

The shared host the benchmark runs on changes speed by tens of percent over
seconds to minutes, for facesim and for any other Python code alike. Each
timed interval is therefore bracketed by a fixed pure-Python probe, and its
wall time is scaled by `REFERENCE_PROBE_S` over the mean of the two probe
times: the interval's duration at the speed where the probe takes
`REFERENCE_PROBE_S`. A change to facesim moves the scaled time as it moves
the wall time; a change of host speed cancels out.

    python3 perfbench/speed.py SRC

prints the scaled time of importing `facesim.cli` from SRC in this fresh
interpreter.
"""

import sys
from time import perf_counter

# Half the probe is integer arithmetic, half is parsing float text, as in
# facesim's CSV reads: the two halves follow different kinds of slow-down.
PROBE_ITERATIONS = 500_000
PROBE_TEXTS = [repr((i * 7919 % 10007) / 10007.0) for i in range(20_000)]
PROBE_PARSES = 6
# The probe's median time on the machine the bounds were set on (2 vCPUs,
# Python 3.11). It fixes the unit of the scaled times, nothing else.
REFERENCE_PROBE_S = 0.054


def probe() -> float:
    """Seconds one fixed pure-Python job takes now."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    for _ in range(PROBE_PARSES):
        for text in PROBE_TEXTS:
            total += float(text)
    return perf_counter() - start


def timed(fn, *args):
    """(scaled seconds, wall seconds, result) of fn(*args), between two probes."""
    before = probe()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    after = probe()
    return wall * 2.0 * REFERENCE_PROBE_S / (before + after), wall, result


def _import_cli(src):
    sys.path.insert(0, src)
    import facesim.cli  # noqa: F401  (imports every layer and numpy)


if __name__ == "__main__":
    scaled, _, _ = timed(_import_cli, sys.argv[1])
    print(repr(scaled))
