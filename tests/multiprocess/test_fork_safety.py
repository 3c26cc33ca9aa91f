"""Forked rank workers after a threaded local run.

libgomp is not fork-safe: a child forked from a process that has already
run an OpenMP parallel region hangs as soon as it enters one itself. The
multiprocess runtime forks its rank workers, so every worker runs its
compiled kernel on one thread. This test runs the whole sequence in one
fresh interpreter — a threaded local ``gala()`` on a graph above the
parallel threshold, then ``runtime="multiprocess"`` with forked ranks on
the same graph — under a hard timeout, and compares the assignments.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.kernels import jit as jitmod

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = r"""
import hashlib, json
import numpy as np
from repro import GalaConfig, gala
from repro.core.kernels import jit
from repro.graph.generators.rmat import rmat_graph

g = rmat_graph(14, edge_factor=16.0, seed=5)
# each rank's half of the first sweep is above the threshold too, so a
# rank that did not cap its threads would enter a parallel region
assert len(g.indices) >= 2 * jit.PARALLEL_MIN_ENTRIES


def digest(result):
    comm = np.ascontiguousarray(result.communities, dtype=np.int64)
    return hashlib.sha256(comm.tobytes()).hexdigest()


def threads(result):
    return sorted({h.kernel_threads for h in result.levels[0].phase1.history})


local = gala(g, GalaConfig())
ranks = gala(g, GalaConfig(runtime="multiprocess", ranks=2))
print(json.dumps({
    "runtime_threads": jit.get_runtime().threads,
    "local": [digest(local), local.modularity, threads(local)],
    "ranks": [digest(ranks), ranks.modularity, threads(ranks)],
}))
"""


@pytest.mark.skipif(
    jitmod.get_runtime() is None, reason="no compile provider here"
)
@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="no fork start method"
)
def test_forked_ranks_after_threaded_local_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    local, ranks = out["local"], out["ranks"]
    assert ranks[0] == local[0]
    assert ranks[1] == local[1]
    # the local run really entered a parallel region before the fork ...
    if out["runtime_threads"] > 1:
        assert out["runtime_threads"] in local[2]
    # ... and every rank worker reported one thread
    assert ranks[2] == [1]
