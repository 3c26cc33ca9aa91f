"""Out-of-core phase-1 wall-clock at 10⁷ edges — regenerates
``BENCH_scale.json``.

Methodology: the parent builds (once) an on-disk RMAT graph store, then
runs each configuration — the local single-process runtime and the
multiprocess runtime at 1/2/4/8 ranks — in its own fresh subprocess over
the *same* store, collecting:

* phase-1 wall-clock (graph open/validate excluded),
* the subprocess's peak RSS (``os.wait4`` → ``ru_maxrss``) and, for the
  multiprocess runtime, the peak RSS over its rank workers
  (``RUSAGE_CHILDREN``),
* modularity / iterations / a sha256 of the final assignment,
* the kernel backend the run's traces report (every configuration
  runs ``kernel="auto"``, so local and the ranks run the same backend).

The parent asserts the assignment digest is identical across every
configuration (the bit-exactness contract) before writing the JSON.
Speedup columns are reported against the local runtime per rank count,
alongside ``cpu_count``/``affinity`` — on a single-core box the
multiprocess runtime cannot beat local (its ranks time-share one CPU and
pay sync overhead), and the JSON says so rather than pretending.

``--limit-data-mb`` caps ``RLIMIT_DATA`` (heap + anonymous mappings —
file-backed maps are exempt) inside each run: the CI scale-smoke job uses
it to *prove* peak heap stays far below the in-RAM edge-array size.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke] [-o OUT]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

#: full run: 2**17 vertices x 120 sampled edges/vertex ~= 10^7 undirected
#: edges after dedup (~2x10^7 adjacency entries on disk)
FULL_SCALE, FULL_EF = 17, 120.0
SMOKE_SCALE, SMOKE_EF = 12, 8.0
RANK_COUNTS = (1, 2, 4, 8)
#: host kernel of every configuration (``GalaConfig``'s default)
KERNEL = "auto"


def _worker(args) -> None:
    if args.limit_data_mb:
        cap = int(args.limit_data_mb * (1 << 20))
        resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))

    from repro.core.phase1 import Phase1Config, run_phase1
    from repro.graph.mmap_store import open_mmap
    from repro.multiprocess import MultiprocessConfig, run_multiprocess_phase1

    graph = open_mmap(args.store, validate=False)
    if args.config == "local":
        t0 = time.perf_counter()
        result = run_phase1(graph, Phase1Config(pruning="mg", kernel=KERNEL))
        wall = time.perf_counter() - t0
    else:
        ranks = int(args.config.removeprefix("mp"))
        t0 = time.perf_counter()
        result = run_multiprocess_phase1(
            graph,
            MultiprocessConfig(num_ranks=ranks, pruning="mg", kernel=KERNEL),
        )
        wall = time.perf_counter() - t0
    digest = hashlib.sha256(
        result.communities.astype("<i8").tobytes()
    ).hexdigest()
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "wall_s": wall,
        "modularity": result.modularity,
        "iterations": result.num_iterations,
        "comm_sha256": digest,
        "kernel_backend": sorted({t.kernel_backend for t in result.history}),
        "workers_peak_rss_mb": kib / 1024.0,
    }))


def _spawn(config: str, store: str, limit_data_mb: float | None) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--worker", config, "--store", store]
    if limit_data_mb:
        cmd += ["--limit-data-mb", str(limit_data_mb)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.environ.get("PYTHONPATH", ""),
                          os.path.join(os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__))),
                              "src")]))),
    )
    # drain the pipes to EOF first (communicate() would reap the child
    # and lose the rusage), then reap via wait4 for ru_maxrss
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{config} failed (exit {proc.returncode}):\n{err}"
        )
    row = json.loads(out.splitlines()[-1])
    row["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    return row


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--output", default="BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, quick run (CI)")
    parser.add_argument("--store", default=None,
                        help="reuse an existing graph store directory")
    parser.add_argument("--limit-data-mb", type=float, default=None,
                        help="RLIMIT_DATA cap (MiB) inside every run")
    parser.add_argument("--worker", metavar="CONFIG", default=None)
    parser.add_argument("--ranks", default=",".join(map(str, RANK_COUNTS)),
                        help="comma-separated multiprocess rank counts")
    args = parser.parse_args()

    if args.worker:
        args.config = args.worker
        _worker(args)
        return

    from repro.graph.generators import rmat_to_disk
    from repro.graph.mmap_store import open_mmap

    scale, ef = (SMOKE_SCALE, SMOKE_EF) if args.smoke else (FULL_SCALE, FULL_EF)
    tmp = None
    if args.store:
        store = args.store
        graph = open_mmap(store, validate=False)
    else:
        tmp = tempfile.mkdtemp(prefix="repro-bench-scale-")
        store = os.path.join(tmp, "g.store")
        print(f"building rmat scale={scale} ef={ef} at {store} ...",
              flush=True)
        t0 = time.perf_counter()
        graph = rmat_to_disk(scale, store, edge_factor=ef, seed=7,
                             validate=False)
        print(f"built in {time.perf_counter() - t0:.1f}s: n={graph.n} "
              f"m={graph.num_edges} "
              f"({graph.store_nbytes / (1 << 20):.0f} MiB on disk)",
              flush=True)

    configs = ["local"] + [f"mp{r}" for r in
                           (int(x) for x in args.ranks.split(","))]
    rows: dict[str, dict] = {}
    for config in configs:
        print(f"running {config} ...", flush=True)
        rows[config] = _spawn(config, store, args.limit_data_mb)
        r = rows[config]
        print(f"  {r['wall_s']:.2f}s  Q={r['modularity']:.5f}  "
              f"rss={r['peak_rss_mb']:.0f}MB", flush=True)

    digests = {r["comm_sha256"] for r in rows.values()}
    if len(digests) != 1:
        raise SystemExit(f"bit-exactness violated across configs: {rows}")

    from repro.core.kernels.jit import get_runtime

    runtime = get_runtime()
    jit_provider = runtime.provider if runtime is not None else None
    local_wall = rows["local"]["wall_s"]
    report = {
        "description": (
            "phase-1 wall-clock on an on-disk RMAT store "
            f"(scale={scale}, edge_factor={ef}, n={graph.n}, "
            f"m={graph.num_edges}): local runtime vs multiprocess at "
            f"{args.ranks} ranks over the same memory-mapped store, "
            f"kernel={KERNEL!r} in every configuration; peak RSS "
            "per run (parent process; workers reported separately). All "
            "configurations produced the bit-identical assignment "
            f"(sha256 {next(iter(digests))[:16]}...)."
        ),
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "jit_provider": jit_provider,
            "note": (
                "multiprocess speedup over local requires as many free "
                "cores as ranks; on fewer cores the ranks time-share and "
                "the sync overhead makes speedup < 1 the honest result"
            ),
        },
        "graph": {
            "scale": scale,
            "edge_factor": ef,
            "n": graph.n,
            "num_edges": graph.num_edges,
            "store_mb": graph.store_nbytes / (1 << 20),
            "in_ram_edge_arrays_mb":
                (graph.num_directed_edges * 16) / (1 << 20),
        },
        "results": {
            cfg: {
                **row,
                **({"speedup_vs_local": local_wall / row["wall_s"]}
                   if cfg != "local" else {}),
            }
            for cfg, row in rows.items()
        },
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if tmp:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
