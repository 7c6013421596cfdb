"""The benchmark's own check: a corrupted reference value must show as failed ops.

    PYTHONPATH=src python3 -m pytest -q benchmarks

The repository's test run collects ``tests/`` only, so this does not add to it.
"""

import copy
import os
import shutil

import run


def _fail_ratio(reference: dict) -> float:
    workdir = os.path.join(run.OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        m, _ = run.measure(
            "expo", seed=3, seconds=0, trace=False, reference=reference,
            workdir=workdir, min_passes=1,
        )
    finally:
        shutil.rmtree(workdir)
    return m.failed / m.attempted


def test_reference_passes_and_corrupted_value_fails():
    reference = run.load_reference()
    assert _fail_ratio(reference) == 0
    corrupted = copy.deepcopy(reference)
    corrupted["expo"]["exp-3-k7"]["chi"] = 4
    assert _fail_ratio(corrupted) > 0
