"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``detect``    Detect communities in an edge-list file with GALA.
``serve``     Run the long-lived detection service (see docs/serving.md).
``top``       Live terminal dashboard for a running serve session.
``stats``     Print structural statistics of a graph file.
``generate``  Generate a synthetic benchmark graph to an edge-list file.
``report``    Render a run manifest (or diff two) as breakdown tables.
``bench``     Shortcut for the experiment harness (``python -m repro.bench``).

``detect`` opts into the observability layer with ``--trace`` (Chrome
trace-event JSON for Perfetto), ``--metrics`` (per-iteration JSONL), and
``--manifest`` (run manifest for ``repro report``); see
``docs/observability.md``.

``detect`` and ``serve`` exit cleanly on SIGINT/SIGTERM: observability
streams are flushed, a partial (``detect``) or final (``serve``)
manifest is written, and the exit code follows the ``128 + signum``
convention (``serve`` drains and exits 0).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
import time

import numpy as np

from repro import GalaConfig, gala, leiden
from repro.core.gala import BACKENDS
from repro.errors import KernelUnavailableError
from repro.graph.generators import lfr_graph, LFRParams, rmat_graph
from repro.graph.io import load_graph, save_edge_list, save_npz
from repro.graph.stats import compute_stats
from repro.metrics import coverage, mean_conductance


class _Interrupted(BaseException):
    """SIGINT/SIGTERM, converted so cleanup can run on the way out.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so no
    library's ``except Exception`` swallows a shutdown request.
    """

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum

    @property
    def name(self) -> str:
        return signal.Signals(self.signum).name


@contextlib.contextmanager
def _graceful_signals():
    """Convert SIGINT/SIGTERM into :class:`_Interrupted` for this scope.

    The ``with`` unwind is the cleanup path: observability sessions flush
    their trace/metrics artifacts in their ``__exit__``, so converting
    the signal into an exception (instead of letting the default handler
    dump a traceback or kill the process outright) is what makes a
    Ctrl+C leave usable artifacts behind. No-op outside the main thread
    (signal handlers are a main-thread-only API — e.g. under pytest
    workers)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        raise _Interrupted(signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _add_detect(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("detect", help="detect communities with GALA")
    p.add_argument("graph",
                   help="edge-list file (whitespace separated), .npz graph, "
                        "or on-disk graph-store directory (see docs/scale.md)")
    p.add_argument("--weighted", action="store_true",
                   help="read a third column as edge weight")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the graph instead of loading it into "
                        "RAM; edge lists are converted once into a sibling "
                        "<path>.store directory and reused (store "
                        "directories are always memory-mapped)")
    p.add_argument("--runtime", default="local",
                   choices=["local", "multiprocess"],
                   help="phase-1 runtime: local (single process) or "
                        "multiprocess (one worker process per rank over "
                        "shared memory; bit-identical to local)")
    p.add_argument("--ranks", type=int, default=2,
                   help="rank count for --runtime multiprocess")
    p.add_argument("--pruning", default="mg",
                   choices=["none", "sm", "rm", "pm", "mg", "mg+rm"],
                   help="pruning strategy (default: mg, GALA's)")
    p.add_argument("--algorithm", default="gala",
                   choices=["gala", "leiden"],
                   help="gala (paper pipeline) or leiden (adds refinement "
                        "+ guaranteed-connected communities)")
    p.add_argument("--ground-truth", default=None,
                   help="'vertex community' file to score against (NMI/ARI)")
    p.add_argument("--resolution", type=float, default=1.0,
                   help="modularity resolution gamma (default 1.0)")
    p.add_argument("--theta", type=float, default=1e-6,
                   help="phase-1 convergence threshold")
    p.add_argument("--phase1-only", action="store_true",
                   help="run only phase 1 of the first round")
    p.add_argument("--backend", default="auto",
                   choices=BACKENDS,
                   help="DecideAndMove backend (default: auto = jit when "
                        "it compiles here, else vectorized; jit = compiled "
                        "hot path via the system C compiler; gpusim = "
                        "simulated GPU with workload-aware kernel dispatch)")
    p.add_argument("--sanitize", nargs="?", const="fast", default=None,
                   choices=["fast", "strict"],
                   help="run under the GALA-San sanitizers (fast: "
                        "racecheck/memcheck/synccheck + CSR audit; "
                        "strict: adds weight-conservation and Lemma-5 "
                        "audits); exits with code 3 when findings are "
                        "recorded. See docs/sanitizers.md")
    p.add_argument("--sanitize-report", default=None, metavar="PATH",
                   help="write the sanitizer findings report (JSON) here "
                        "(implies --sanitize fast when --sanitize is "
                        "not given)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None,
                   help="write 'vertex community' lines here")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON here "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="stream per-iteration metrics as JSON Lines here")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="write the run manifest here (input to "
                        "'repro report')")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the detection service (asyncio, JSON-lines over TCP; "
             "see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7461,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "printed on startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="subprocess engine workers (the detect concurrency)")
    p.add_argument("--runner", default="subprocess",
                   choices=["subprocess", "inline"],
                   help="engine runner; 'inline' runs engines in-process "
                        "(tests/smoke only — engine runs hold the GIL and "
                        "stall intake)")
    p.add_argument("--cache-mb", type=float, default=64.0,
                   help="result-cache byte budget in MiB")
    p.add_argument("--registry-mb", type=float, default=None,
                   help="graph-registry byte budget in MiB (default: "
                        "unbounded)")
    p.add_argument("--max-pending", type=int, default=32,
                   help="admission bound: engine runs in flight before "
                        "detect requests are shed with a 503")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request engine timeout in seconds (0 = none)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="graceful-drain budget on SIGINT/SIGTERM")
    p.add_argument("--graph", action="append", default=[], metavar="PATH",
                   help="edge-list file, .npz graph, or graph-store "
                        "directory to preload into the registry "
                        "(repeatable; fingerprints are printed)")
    p.add_argument("--weighted", action="store_true",
                   help="preloaded graphs carry a third weight column")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map preloaded edge lists (converted once "
                        "into sibling .store directories); store "
                        "directories are always memory-mapped and their "
                        "pages are shared with engine workers instead of "
                        "copied into each worker heap")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="write the serving-session manifest here on "
                        "shutdown (input to 'repro report')")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="bind an HTTP listener for GET /metrics "
                        "(Prometheus text) and GET /healthz on this port "
                        "(0 = ephemeral; printed on startup)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write one merged cross-process Chrome trace per "
                        "engine-running detect request into this directory "
                        "(open in Perfetto)")
    p.add_argument("--trace-keep", type=int, default=256,
                   help="retention cap on written request traces")
    p.add_argument("--slo", default=None, metavar="SPEC",
                   help="SLO spec like 'p99_ms=250,error_rate=0.01'; "
                        "violations flip /healthz to 503 and log a "
                        "structured slo_violation event")
    p.add_argument("--slo-window", type=float, default=60.0,
                   help="rolling window (seconds) for the SLO evaluator "
                        "and the live p50/p95/p99")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig

    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        runner=args.runner,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        registry_bytes=(
            int(args.registry_mb * (1 << 20)) if args.registry_mb else None
        ),
        max_pending=args.max_pending,
        request_timeout_s=args.timeout if args.timeout > 0 else None,
        drain_timeout_s=args.drain_timeout,
        metrics_port=args.metrics_port,
        trace_dir=args.trace_dir,
        trace_keep=args.trace_keep,
        slo=args.slo,
        slo_window_s=args.slo_window,
    )
    return asyncio.run(_serve_main(args, cfg))


async def _serve_main(args: argparse.Namespace, cfg) -> int:
    import asyncio

    from repro import obs
    from repro.serve import DetectionServer

    stop = asyncio.Event()
    received: dict[str, int] = {}

    def _on_signal(signum: int) -> None:
        received.setdefault("signum", signum)
        stop.set()

    # handlers go in before the first line of output: a supervisor (or
    # test) that signals the moment it sees "serving on" must find them
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, _on_signal, sig)

    server = DetectionServer(cfg)
    for path in args.graph:
        graph = load_graph(path, weighted=args.weighted, mmap=args.mmap)
        fingerprint = server.registry.put(graph)
        print(f"registered {graph.name}: n={graph.n} m={graph.num_edges} "
              f"fingerprint={fingerprint}", flush=True)
    host, port = await server.start()
    print(f"serving on {host}:{port} (runner={cfg.runner} "
          f"workers={cfg.workers} max_pending={cfg.max_pending})", flush=True)
    if server.metrics_port is not None:
        print(f"metrics on http://{host}:{server.metrics_port}/metrics "
              f"(health: /healthz)", flush=True)
    if cfg.trace_dir:
        print(f"tracing requests into {cfg.trace_dir}", flush=True)

    serve_task = asyncio.create_task(server.serve_forever())
    try:
        await stop.wait()
    finally:
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(sig)
    name = signal.Signals(received.get("signum", signal.SIGTERM)).name
    print(f"received {name}; draining "
          f"({server._inflight} in flight) ...", flush=True)
    clean = await server.drain()
    serve_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serve_task
    if args.manifest:
        manifest = server.manifest(command=f"serve {host}:{port}")
        obs.save_manifest(manifest, args.manifest)
        print(f"wrote serving manifest to {args.manifest}")
    stats = server.cache.stats()
    print(f"drained {'clean' if clean else 'with cancellations'}; "
          f"served {int(server.metrics.counter('serve/requests_total').value)} "
          f"requests, cache hit rate {stats['hit_rate']:.2f}")
    return 0


def _add_top(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "top",
        help="live terminal dashboard for a running serve session "
             "(polls the metrics op or the HTTP /metrics exposition)",
    )
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="poll over the JSONL protocol (the serve port)")
    p.add_argument("--http", default=None, metavar="URL",
                   help="poll by scraping a /metrics URL instead")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N polls (default: run until ^C)")
    p.add_argument("--once", action="store_true",
                   help="print one status block and exit (no screen clear)")


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    if args.connect is None and args.http is None:
        print("repro top: --connect HOST:PORT or --http URL is required",
              file=sys.stderr)
        return 2
    try:
        return run_top(
            connect=args.connect,
            http=args.http,
            interval_s=args.interval,
            iterations=1 if args.once else args.iterations,
            clear=not args.once,
        )
    except ValueError as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 2


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "report",
        help="render run manifests: one -> breakdown tables, two -> diff",
    )
    p.add_argument("manifests", nargs="+", metavar="MANIFEST",
                   help="manifest JSON file(s) written by detect --manifest")
    p.add_argument("--diff-only", action="store_true",
                   help="with two manifests, print only the diff table")


def _add_lint(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "lint",
        help="run the AST invariant checker (repro-lint) over src/",
        description="Static analysis of repo-level contracts: config "
                    "cache-key classification, determinism, metric-name "
                    "registry, protocol coverage, float accumulation, span "
                    "pairing. Exits 3 when unwaived findings remain. See "
                    "docs/static_analysis.md.",
    )
    p.add_argument("--root", default=None, metavar="DIR",
                   help="repository root containing src/repro "
                        "(default: the root this package was loaded from)")
    p.add_argument("--rules", default=None, metavar="R1,R2",
                   help="comma-separated subset of rules to run")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (json is the CI artifact payload)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also write the report (in --format) to this file")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="write a run manifest carrying the findings "
                        "(renders via `repro report`)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")


def _add_stats(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("stats", help="print graph statistics")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--weighted", action="store_true")


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("kind", choices=["lfr", "rmat"])
    p.add_argument("-o", "--output", required=True,
                   help="output path: an edge list, or the binary format "
                        "when it ends in .npz")
    p.add_argument("--n", type=int, default=10_000, help="vertices (lfr)")
    p.add_argument("--mu", type=float, default=0.3, help="LFR mixing parameter")
    p.add_argument("--scale", type=int, default=14, help="log2 vertices (rmat)")
    p.add_argument("--edge-factor", type=float, default=16.0, help="rmat edges/vertex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--store", action="store_true",
                   help="write an on-disk graph-store directory instead of "
                        "an edge list (rmat only; generated chunk-by-chunk "
                        "without ever materialising the edge arrays in RAM "
                        "— see docs/scale.md)")
    p.add_argument("--ground-truth", default=None,
                   help="write LFR planted communities here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GALA: GPU-Accelerated Louvain Algorithm (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_detect(sub)
    _add_serve(sub)
    _add_top(sub)
    _add_stats(sub)
    _add_generate(sub)
    _add_report(sub)
    _add_lint(sub)
    sub.add_parser("bench", help="run the experiment harness",
                   add_help=False)
    return parser


def _write_partial_manifest(args, graph, cfg, sess, exc) -> None:
    """The interrupted-run manifest: identity without a result."""
    from repro import obs

    manifest = obs.RunManifest(
        command="detect " + (graph.name if graph is not None else args.graph),
        runtime=args.algorithm,
        config=cfg if isinstance(cfg, dict) else _manifest_config(cfg),
        seed=args.seed,
        graph=obs.graph_fingerprint(graph) if graph is not None else {},
        metrics=sess.summary() if sess is not None else {},
    )
    manifest.result = {"partial": True, "signal": exc.name}
    obs.save_manifest(manifest, args.manifest)
    print(f"wrote partial run manifest to {args.manifest}")


def _manifest_config(cfg):
    from repro.obs.manifest import _config_dict

    return _config_dict(cfg)


def cmd_detect(args: argparse.Namespace) -> int:
    from repro import analysis, obs

    sanitize = args.sanitize
    if sanitize is None and args.sanitize_report:
        sanitize = "fast"
    observed = bool(args.trace or args.metrics or args.manifest)
    sess_cm = (
        obs.session(trace=args.trace, metrics=args.metrics)
        if observed
        else contextlib.nullcontext()
    )
    san_cm = analysis.sanitized(sanitize) if sanitize else contextlib.nullcontext()
    graph = None
    sess = san = None
    cfg = None
    manifest_written = False
    start = time.perf_counter()
    try:
        # the converted-signal scope covers the whole command, artifact
        # tail included: a signal at any point exits 128+signum with
        # flushed artifacts instead of a mid-print kill or a traceback
        if args.algorithm == "leiden" and args.runtime != "local":
            print("error: --runtime multiprocess applies to the gala "
                  "pipeline only (leiden runs locally)", file=sys.stderr)
            return 2
        with _graceful_signals():
            graph = load_graph(args.graph, weighted=args.weighted,
                               mmap=args.mmap)
            print(f"loaded {graph.name}: n={graph.n} m={graph.num_edges}",
                  flush=True)
            with sess_cm as sess, san_cm as san:
                if args.algorithm == "leiden":
                    result = leiden(
                        graph, resolution=args.resolution, theta=args.theta,
                        seed=args.seed,
                    )
                else:
                    try:
                        cfg = GalaConfig(
                            pruning=args.pruning,
                            resolution=args.resolution,
                            theta=args.theta,
                            seed=args.seed,
                            phase1_only=args.phase1_only,
                            backend=args.backend,
                            runtime=args.runtime,
                            ranks=args.ranks,
                        )
                    except ValueError as exc:
                        # e.g. --ranks 0, or multiprocess with gpusim
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
                    try:
                        result = gala(graph, cfg)
                    except KernelUnavailableError as exc:
                        # explicit --backend jit without a compile
                        # provider: a message, not a traceback
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
            elapsed = time.perf_counter() - start

            san_exit = 0
            if sanitize:
                print(san.log.render())
                if args.sanitize_report:
                    import json

                    with open(args.sanitize_report, "w") as fh:
                        json.dump(san.report(), fh, indent=2)
                    print(f"wrote sanitizer report to {args.sanitize_report}")
                if not san.log.clean:
                    san_exit = 3

            if args.manifest:
                manifest = getattr(result, "manifest", None)
                if manifest is None:  # leiden has no attached manifest (yet)
                    manifest = obs.build_manifest(
                        result, graph,
                        metrics=sess.summary() if observed else None,
                        runtime=args.algorithm,
                    )
                manifest.command = "detect " + graph.name
                obs.save_manifest(manifest, args.manifest)
                manifest_written = True
                print(f"wrote run manifest to {args.manifest}")
            if args.trace:
                print(f"wrote Chrome trace to {args.trace}")
            if args.metrics:
                print(f"wrote metrics JSONL to {args.metrics}")
            comm = result.communities
            k = len(np.unique(comm))
            print(f"detected {k} communities in {elapsed:.2f}s")
            print(f"modularity:  {result.modularity:.5f} "
                  f"(gamma={args.resolution})")
            print(f"coverage:    {coverage(graph, comm):.4f}")
            print(f"conductance: {mean_conductance(graph, comm):.4f}")
            if args.ground_truth:
                from repro.metrics import (
                    adjusted_rand_index,
                    normalized_mutual_information,
                )

                truth = np.loadtxt(args.ground_truth, dtype=np.int64)
                labels = truth[:, 1] if truth.ndim == 2 else truth
                if len(labels) != graph.n:
                    raise SystemExit(
                        f"ground truth labels {len(labels)} != "
                        f"graph vertices {graph.n}"
                    )
                print(f"NMI vs truth: "
                      f"{normalized_mutual_information(comm, labels):.4f}")
                print(f"ARI vs truth: {adjusted_rand_index(comm, labels):.4f}")
            if args.output:
                with open(args.output, "w") as fh:
                    for v, c in enumerate(comm):
                        fh.write(f"{v} {c}\n")
                print(f"wrote assignment to {args.output}")
            return san_exit
    except _Interrupted as exc:
        # the with-unwind above already flushed the obs session's trace
        # and metrics streams; record what we know and exit 128+signum
        if args.trace:
            print(f"wrote Chrome trace to {args.trace}")
        if args.metrics:
            print(f"wrote metrics JSONL to {args.metrics}")
        if args.manifest and not manifest_written:
            _write_partial_manifest(args, graph, cfg, sess, exc)
        print(f"interrupted ({exc.name}); partial artifacts flushed",
              file=sys.stderr)
        return 128 + exc.signum


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_manifest
    from repro.obs.report import render_diff, render_manifest

    manifests = []
    for path in args.manifests:
        try:
            manifests.append(load_manifest(path))
        except (OSError, ValueError) as exc:
            print(f"repro report: cannot read manifest {path}: {exc}",
                  file=sys.stderr)
            return 2
    if len(manifests) == 1:
        print(render_manifest(manifests[0]))
        return 0
    if len(manifests) == 2:
        if not args.diff_only:
            for m, path in zip(manifests, args.manifests):
                print(f"--- {path} ---")
                print(render_manifest(m))
                print()
        print(render_diff(manifests[0], manifests[1]))
        return 0
    # three or more: one summary row each
    from repro.bench.reporting import format_table

    rows = [
        {
            "manifest": path,
            "graph": m.graph.get("name"),
            "n": m.graph.get("n"),
            "levels": m.result.get("num_levels"),
            "iterations": m.result.get("iterations"),
            "Q": round(m.result.get("modularity") or 0.0, 5),
            "sim_cycles": m.result.get("sim_cycles"),
            "comm_bytes": m.result.get("comm_bytes"),
        }
        for m, path in zip(manifests, args.manifests)
    ]
    print(format_table(rows, title="manifest summary"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, weighted=args.weighted)
    s = compute_stats(graph)
    for key, value in s.as_row().items():
        print(f"{key:20s} {value}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.staticcheck import describe_rules, run_staticcheck

    if args.list_rules:
        for name, doc in describe_rules():
            print(f"{name:24s} {doc}")
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        report = run_staticcheck(repo_root=args.root, rules=rules)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        _json.dumps(report.as_json(), indent=2)
        if args.format == "json"
        else report.render_text()
    )
    print(rendered)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
    if args.manifest:
        from repro import obs

        manifest = obs.RunManifest(
            command="lint",
            runtime="staticcheck",
            config={"rules": list(report.rules_run)},
            staticcheck=report.summary(),
        )
        obs.save_manifest(manifest, args.manifest)
        print(f"wrote lint manifest to {args.manifest}", file=sys.stderr)
    # mirror the sanitizer convention: findings exit 3, clean exits 0
    return 0 if report.clean else 3


def cmd_generate(args: argparse.Namespace) -> int:
    if args.store:
        if args.kind != "rmat":
            print("error: --store supports rmat only", file=sys.stderr)
            return 2
        from repro.graph.generators import rmat_to_disk

        graph = rmat_to_disk(args.scale, args.output,
                             edge_factor=args.edge_factor, seed=args.seed)
        print(f"wrote {graph.name} (n={graph.n}, m={graph.num_edges}, "
              f"{graph.store_nbytes / (1 << 20):.1f} MiB on disk) "
              f"to store {args.output}")
        return 0
    if args.kind == "lfr":
        params = LFRParams(n=args.n, mu=args.mu, seed=args.seed)
        graph, truth = lfr_graph(params)
        if args.ground_truth:
            with open(args.ground_truth, "w") as fh:
                for v, c in enumerate(truth):
                    fh.write(f"{v} {c}\n")
            print(f"wrote ground truth to {args.ground_truth}")
    else:
        graph = rmat_graph(args.scale, edge_factor=args.edge_factor,
                           seed=args.seed)
    if args.output.endswith(".npz"):
        save_npz(graph, args.output)
    else:
        save_edge_list(graph, args.output)
    print(f"wrote {graph.name} (n={graph.n}, m={graph.num_edges}) "
          f"to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        # delegate everything after 'bench' to the harness CLI
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    return {
        "detect": cmd_detect,
        "serve": cmd_serve,
        "top": cmd_top,
        "stats": cmd_stats,
        "generate": cmd_generate,
        "report": cmd_report,
        "lint": cmd_lint,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
