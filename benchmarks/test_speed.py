"""The speed probe must read the core's speed, not the program's cache state.

    PYTHONPATH=src python3 -m pytest -q benchmarks

The timer fires between the program's own steps. A program change that only
enlarges its working set must not change the slowdown that every scaled time
is divided by, or part of its real cost would cancel out.
"""

import statistics

import speed


def test_probe_reads_the_same_after_a_memory_sweep():
    big = bytearray(32 << 20)  # larger than the last-level cache
    after_sweep, after_probe = [], []
    for _ in range(300):
        bytes(big)  # evicts the probe's code and data, as a memory-heavy op does
        after_sweep.append(speed.probe()[1])
        after_probe.append(speed.probe()[1])
    # the two kinds of reading alternate, so a change of host speed hits both
    assert statistics.median(after_sweep) < 1.04 * statistics.median(after_probe)
