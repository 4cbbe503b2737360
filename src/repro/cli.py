"""Command-line interface: regenerate paper figures and run custom points.

Usage::

    python -m repro figures                      # list the measured tables
    python -m repro figures figure3 figure7      # regenerate specific ones
    python -m repro figures --all                # all of EXPERIMENTS.tables.txt
    python -m repro run --network myrinet --middleware mpi --ranks 8
    python -m repro trace --ranks 4 -o trace.json  # same run + Chrome span trace
    python -m repro workload                     # describe the benchmark system
    python -m repro analyze src tests            # communication-correctness lint
    python -m repro analyze --sanitize-run       # sanitized end-to-end runs
    python -m repro campaign run --design full --workers 4   # cached sweep
    python -m repro campaign status              # store, manifests, board view if leased
    python -m repro campaign status --metrics    # + merged metrics snapshots
    watch -n 2 python -m repro campaign status   # repaint the board view (leases, ETA)
    python -m repro campaign verify --sample 4 --workers 4   # re-run cached points, diff
    python -m repro campaign gc                  # compact the result store
    python -m repro campaign analyze report --format md      # comp/comm/sync breakdown
    python -m repro campaign analyze drift                   # energy/conservation audit
    python -m repro campaign analyze coverage                # factorial holes, shard health
    python -m repro campaign serve --design full --board file:leases.json  # publish leases
    python -m repro campaign work --store host-a --board file:leases.json  # pull + execute
    python -m repro campaign merge --store merged host-a host-b        # fold back
    python -m repro campaign coordinator --port 8765             # HTTP lease coordinator
    python -m repro campaign serve --design full --board http://localhost:8765
    python -m repro campaign work --store host-a --board http://localhost:8765
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Characterization of a Molecular "
            "Dynamics Code on PC Clusters' (IPPS 2002)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figs = sub.add_parser(
        "figures", help="regenerate the paper's figures, the extensions and the ablations"
    )
    figs.add_argument("names", nargs="*", help="figure ids (default: list them)")
    figs.add_argument(
        "--all", action="store_true",
        help="run every figure; at the default --steps the output is EXPERIMENTS.tables.txt",
    )
    figs.add_argument(
        "--steps", type=int, default=10, help="MD steps per run (paper: 10)"
    )

    def _point_flags(p):
        p.add_argument(
            "--network",
            default="tcp-gige",
            help="tcp-gige | score-gige | myrinet | tcp-fast-ethernet | wide-area-grid",
        )
        p.add_argument("--middleware", default="mpi", help="mpi | cmpi")
        p.add_argument("--ranks", type=int, default=4)
        p.add_argument("--cpus-per-node", type=int, default=1, choices=(1, 2))
        p.add_argument("--steps", type=int, default=10)
        p.add_argument("--seed", type=int, default=2002)

    run = sub.add_parser("run", help="run one platform point")
    _point_flags(run)
    run.add_argument(
        "--strategy", default="replicated", choices=("replicated", "spatial"),
        help=(
            "decomposition strategy: replicated (CHARMM's replicated data, "
            "the default) or spatial (cell-grid domain decomposition with "
            "halo exchange; classic cutoff electrostatics, no PME)"
        ),
    )

    trace = sub.add_parser(
        "trace",
        help="run one platform point with span tracing; write Chrome trace JSON",
    )
    _point_flags(trace)
    trace.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace-event output file (open in Perfetto / chrome://tracing)",
    )

    sub.add_parser("workload", help="describe the 3552-atom benchmark system")

    analyze = sub.add_parser(
        "analyze",
        help="communication-correctness analyzer (lint + sanitizer + static verifier)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: ./src and ./tests if present)",
    )
    analyze.add_argument(
        "--sanitize-run",
        action="store_true",
        help=(
            "also run a small sanitized workload (2 and 4 ranks, MPI and CMPI, "
            "plus MPI on dual-processor TCP nodes), check every runtime "
            "invariant, and verify timings are identical to an unsanitized run"
        ),
    )
    analyze.add_argument(
        "--steps", type=int, default=2, help="MD steps for --sanitize-run (default 2)"
    )
    analyze.add_argument(
        "--github", action="store_true",
        help="also emit GitHub Actions annotations (::error/::warning) per finding",
    )
    analyze.add_argument(
        "--static",
        action="store_true",
        help=(
            "also run the static schedule verifier (REP4xx: symbolic "
            "deadlock/tag-race/type-agreement proof over every strategy and "
            "middleware for all p up to --bound, plus schedule-contract "
            "conformance) and report the lint's determinism findings (REP5xx)"
        ),
    )
    analyze.add_argument(
        "--bound", type=int, default=32,
        help="rank-count bound for the static verifier (default 32)",
    )
    analyze.add_argument(
        "--sarif", metavar="PATH",
        help="write the --static findings as SARIF 2.1.0 (GitHub code scanning)",
    )

    campaign = sub.add_parser(
        "campaign",
        help="cached, parallel, resumable design-point sweeps",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _common(p):
        p.add_argument(
            "--store", default=".repro-cache", help="result-store directory"
        )
        p.add_argument(
            "--workload", default="myoglobin-pme",
            help="named workload (see repro.campaign.workloads)",
        )
        p.add_argument("--steps", type=int, default=10, help="MD steps per run")
        p.add_argument("--seed", type=int, default=2002, help="base platform seed")

    def _design(p):
        p.add_argument(
            "--design", default="sweep", choices=("sweep", "paper", "full"),
            help="sweep: focal point only; paper: one-factor-at-a-time; full: all 12 cases",
        )
        p.add_argument(
            "--ranks", default="1,2,4,8", help="comma-separated processor counts"
        )
        p.add_argument("--replicates", type=int, default=1)
        p.add_argument(
            "--strategy", default="replicated", choices=("replicated", "spatial"),
            help=(
                "decomposition strategy applied to every generated point "
                "(spatial needs a cutoff-only workload, e.g. --workload water-box)"
            ),
        )

    crun = csub.add_parser("run", help="execute a design-point campaign")
    _common(crun)
    _design(crun)
    crun.add_argument(
        "--workers", type=int, default=0,
        help="0 = run inline; N = N processes, one per trajectory group",
    )
    crun.add_argument(
        "--timeout", type=float, default=None, help="per-point wall-time limit (s)"
    )
    crun.add_argument("--retries", type=int, default=1)
    crun.add_argument(
        "--sanitize-run", action="store_true",
        help="execute every point under the runtime sanitizer (timings unchanged)",
    )
    crun.add_argument(
        "--trace-dir", default=None,
        help=(
            "write a Chrome span trace per executed point plus the engine's "
            "host-side trace into this directory (wall-clock only; results "
            "are bit-identical)"
        ),
    )

    cstatus = csub.add_parser("status", help="store statistics and campaign manifests")
    cstatus.add_argument("--store", default=".repro-cache")
    cstatus.add_argument(
        "--metrics", action="store_true",
        help="also print each manifest's merged metrics snapshot",
    )
    cstatus.add_argument(
        "--board", default=None,
        help=(
            "board for the board view (in-flight points, throughput, lease "
            "health, ETA, latest report link) — file:PATH or http://HOST:PORT "
            "(a running coordinator); default: file:<store>/leases.json if present"
        ),
    )
    cstatus.add_argument(
        "--runlog", default=None,
        help="board view: runlog file to show recent activity from (torn tails tolerated)",
    )

    cgc = csub.add_parser("gc", help="compact shards, drop corrupt/stale entries")
    cgc.add_argument("--store", default=".repro-cache")

    canalyze = csub.add_parser(
        "analyze",
        help=(
            "post-hoc analytics over a warm store: comm-breakdown report, "
            "drift/conservation checks, coverage audit — zero force evaluations"
        ),
    )
    canalyze.add_argument(
        "kind", choices=("report", "drift", "coverage"),
        help=(
            "report: comp/comm/sync breakdown tables (the paper's tables); "
            "drift: energy consensus + phase bookkeeping; coverage: factorial "
            "completeness + shard health"
        ),
    )
    canalyze.add_argument("--store", default=".repro-cache", help="store to analyze")
    canalyze.add_argument(
        "--series", default="p",
        help="report: the axis tables vary along (p, network, middleware, ...)",
    )
    canalyze.add_argument(
        "--format", dest="fmt", default="json", choices=("json", "md", "html"),
        help="output rendering (the saved report is always canonical JSON)",
    )
    canalyze.add_argument(
        "-o", "--output", default=None,
        help="write the rendering here instead of stdout",
    )
    canalyze.add_argument(
        "--no-save", action="store_true",
        help="do not publish <store>/reports/<kind>-latest.json",
    )

    cverify = csub.add_parser(
        "verify", help="re-run a sample of cached points and diff bit-for-bit"
    )
    _common(cverify)
    cverify.add_argument("--sample", type=int, default=4)
    cverify.add_argument(
        "--workers", type=int, default=0,
        help="fan verification re-runs out over N worker processes (0 = inline)",
    )

    cserve = csub.add_parser(
        "serve", help="publish a lease board other hosts pull points from"
    )
    _common(cserve)
    _design(cserve)
    cserve.add_argument(
        "--board", default=None,
        help=(
            "board to publish to — file:PATH or http://HOST:PORT (a running "
            "coordinator); default: file:<store>/leases.json"
        ),
    )

    cwork = csub.add_parser(
        "work", help="claim leases from a board and execute them into a local store"
    )
    cwork.add_argument(
        "--store", default=".repro-cache", help="this worker's result-store directory"
    )
    cwork.add_argument(
        "--board", default=None,
        help=(
            "board to pull leases from — file:PATH or http://HOST:PORT "
            "(a running coordinator)"
        ),
    )
    cwork.add_argument(
        "--worker", default=None, help="worker id (default: <hostname>-<pid>)"
    )
    cwork.add_argument(
        "--ttl", type=float, default=300.0,
        help=(
            "lease time-to-live in seconds, renewed per trajectory group at half "
            "of it; an expired lease is reclaimable"
        ),
    )
    cwork.add_argument(
        "--max-points", type=int, default=None, help="stop after claiming N leases"
    )

    cmerge = csub.add_parser(
        "merge", help="fold worker stores/shards back into one store, with provenance"
    )
    cmerge.add_argument(
        "sources", nargs="+", help="worker store directories or .jsonl shard files"
    )
    cmerge.add_argument(
        "--store", default=".repro-cache", help="destination store directory"
    )
    cmerge.add_argument(
        "--expect", default=None,
        help=(
            "reference store directory; after merging, assert the destination "
            "matches it key-for-key with bit-identical records (exit 1 otherwise)"
        ),
    )

    ccoord = csub.add_parser(
        "coordinator",
        help=(
            "run the asyncio HTTP campaign coordinator: the lease board as "
            "a service, for workers that share no filesystem"
        ),
    )
    ccoord.add_argument("--host", default="127.0.0.1", help="bind address")
    ccoord.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free port)"
    )
    ccoord.add_argument(
        "--state", default="coordinator-board.json",
        help=(
            "board state file; campaigns survive coordinator restarts "
            "because this file is the persistence"
        ),
    )
    ccoord.add_argument(
        "--reports", default=None,
        help=(
            "directory of published analysis reports (a store's reports/ "
            "dir); enables read-only GET /v1/report"
        ),
    )

    return parser


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import ALL_FIGURES, default_runner

    if not args.names and not args.all:
        print("Available figures:")
        width = max(map(len, ALL_FIGURES))
        for name, driver in ALL_FIGURES.items():
            print(f"  {name:{width}s} {driver.__doc__.strip().splitlines()[0]}")
        return 0

    names = list(ALL_FIGURES) if args.all else args.names
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2

    try:
        runner = default_runner(n_steps=args.steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in names:
        result = ALL_FIGURES[name](runner)
        print(result.report)
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from . import (
        DesignPoint,
        MDRunConfig,
        PlatformConfig,
        ResponseRecord,
        RunOptions,
        myoglobin_system,
        myoglobin_workload,
        run_parallel_md,
    )
    from .core.report import breakdown_table, time_series_table

    try:
        config = PlatformConfig(
            network=args.network,
            middleware=args.middleware,
            cpus_per_node=args.cpus_per_node,
        )
        spec = config.cluster_spec(args.ranks, seed=args.seed)
        run_config = MDRunConfig(n_steps=args.steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    strategy = getattr(args, "strategy", "replicated")
    print(f"Simulating {spec.describe()}, {args.steps} MD steps...")
    mg = myoglobin_workload()
    point = DesignPoint(config=config, n_ranks=args.ranks, strategy=strategy)
    # the spatial strategy covers the classic (cutoff) path only, so it
    # runs the shift-electrostatics variant of the benchmark system
    electrostatics = "pme" if strategy == "replicated" else "shift"
    result = run_parallel_md(
        myoglobin_system(electrostatics),
        mg.positions,
        spec,
        RunOptions.for_point(point, config=run_config),
    )
    record = ResponseRecord.from_run(point, result)
    print(time_series_table([record]))
    print()
    print(breakdown_table([record], "classic"))
    if strategy == "replicated":
        print()
        print(breakdown_table([record], "pme"))
    stats = result.comm_stats()
    if stats.n_transfers:
        print(
            f"\ncommunication speed per node: mean {stats.mean:.1f} MB/s "
            f"[{stats.minimum:.1f}, {stats.maximum:.1f}] over {stats.n_transfers} transfers"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one point with the span tracer attached; write Chrome JSON."""
    from . import (
        DesignPoint,
        MDRunConfig,
        PlatformConfig,
        RunOptions,
        myoglobin_system,
        myoglobin_workload,
        run_parallel_md,
    )
    from .instrument.tracing import VIRTUAL_PID_BASE, SpanTracer, validate_chrome_trace

    try:
        config = PlatformConfig(
            network=args.network,
            middleware=args.middleware,
            cpus_per_node=args.cpus_per_node,
        )
        spec = config.cluster_spec(args.ranks, seed=args.seed)
        run_config = MDRunConfig(n_steps=args.steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"Tracing {spec.describe()}, {args.steps} MD steps...")
    mg = myoglobin_workload()
    point = DesignPoint(config=config, n_ranks=args.ranks)
    tracer = SpanTracer()
    run_parallel_md(
        myoglobin_system("pme"),
        mg.positions,
        spec,
        RunOptions.for_point(point, config=run_config, span_tracer=tracer),
    )
    path = tracer.write(args.output)
    problems = validate_chrome_trace(tracer.to_chrome())
    for line in problems:
        print(f"  INVALID {line}", file=sys.stderr)
    n_virtual = sum(1 for s in tracer.spans if s.pid >= VIRTUAL_PID_BASE)
    print(
        f"trace: {len(tracer.spans)} spans ({n_virtual} virtual) across "
        f"{args.ranks} ranks -> {path} "
        f"({'valid' if not problems else f'{len(problems)} problem(s)'}; "
        "load in Perfetto or chrome://tracing)"
    )
    return 0 if not problems else 1


def _cmd_workload(_args: argparse.Namespace) -> int:
    from . import myoglobin_workload

    mg = myoglobin_workload()
    topo = mg.topology
    by_segment: dict[str, int] = {}
    for atom in topo.atoms:
        by_segment[atom.segment] = by_segment.get(atom.segment, 0) + 1
    print("The benchmark system (paper Sec. 2.2, rebuilt synthetically):")
    print(f"  atoms:       {topo.n_atoms}")
    print(f"  charge:      {topo.total_charge():+.3f} e")
    print(f"  box:         {mg.box.lx} x {mg.box.ly} x {mg.box.lz} A")
    print(f"  PME mesh:    {mg.pme_grid[0]} x {mg.pme_grid[1]} x {mg.pme_grid[2]}")
    print(
        f"  bonded:      {len(topo.bonds)} bonds, {len(topo.angles)} angles, "
        f"{len(topo.dihedrals)} dihedrals, {len(topo.impropers)} impropers"
    )
    print("  segments:")
    for segment, count in sorted(by_segment.items()):
        print(f"    {segment:8s} {count:5d} atoms")
    return 0


def _github_annotation(diag) -> str:
    """One finding as a GitHub Actions workflow command (check annotation)."""
    level = "error" if diag.severity == "error" else "warning"
    # workflow-command syntax: property values must escape , and newlines
    message = str(diag.message).replace("%", "%25").replace("\n", "%0A")
    return f"::{level} file={diag.path},line={diag.line},title={diag.rule}::{message}"


def _analyze_lint(paths: list[str], github: bool = False) -> tuple[int, list]:
    """Static layer of ``repro analyze``: one lint pass over the paths.

    Prints the REP1xx findings and returns their error count together
    with the determinism findings (REP5xx) of the same pass, which the
    ``--static`` layer reports.
    """
    from pathlib import Path

    from .analysis import lint_paths

    if not paths:
        paths = [p for p in ("src", "tests") if Path(p).is_dir()]
        if not paths:
            print("error: no paths given and no ./src or ./tests here", file=sys.stderr)
            return 1, []
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 1, []
    diags, determinism = [], []
    for diag in lint_paths(paths):
        (determinism if diag.rule.startswith("REP5") else diags).append(diag)
    for diag in diags:
        print(diag.format())
        if github:
            print(_github_annotation(diag))
    n_files = sum(
        1 if Path(p).is_file() else sum(1 for _ in Path(p).rglob("*.py")) for p in paths
    )
    errors = sum(1 for d in diags if d.severity == "error")
    print(
        f"analyze: linted {n_files} files under {', '.join(map(str, paths))}: "
        f"{errors} error(s), {len(diags) - errors} warning(s)"
    )
    return errors, determinism


def _analyze_sanitize_run(n_steps: int) -> int:
    """Dynamic layer of ``repro analyze --sanitize-run``.

    Five legs — MPI and CMPI at 2 and 4 ranks on SCore-GigE, and MPI at
    4 ranks on dual-processor TCP-GigE nodes: run the small workload
    plain and sanitized, require zero invariant violations and
    bit-identical comp/comm/sync totals.  Returns the number of failures.
    """
    from . import MDRunConfig, RunOptions, run_parallel_md
    from .analysis import SanitizerError
    from .campaign.workloads import build_workload
    from .cluster import ClusterSpec, NodeSpec, score_gigabit_ethernet, tcp_gigabit_ethernet

    system, pos = build_workload("peptide-tiny")
    config = MDRunConfig(n_steps=n_steps, dt=0.0004)
    score = score_gigabit_ethernet()
    legs = [
        (f"{mw} p={ranks}", mw, ClusterSpec(n_ranks=ranks, network=score, seed=7))
        for mw in ("mpi", "cmpi")
        for ranks in (2, 4)
    ]
    dual_tcp = ClusterSpec(
        n_ranks=4, network=tcp_gigabit_ethernet(), node=NodeSpec(cpus_per_node=2), seed=7
    )
    legs.append(("mpi p=4 dual tcp-gige", "mpi", dual_tcp))

    failures = 0
    for label, mw, spec in legs:
        options = RunOptions(middleware=mw, config=config)
        plain = run_parallel_md(system, pos, spec, options)
        try:
            sanitized = run_parallel_md(system, pos, spec, options.replace(sanitize=True))
        except SanitizerError as exc:
            print(f"  {label}: sanitizer violation: {exc}")
            failures += 1
            continue
        phases = {p for r in (plain, sanitized) for tl in r.timelines for p in tl.phases}
        drift = []
        for phase in sorted(phases):
            a, b = plain.component(phase), sanitized.component(phase)
            if (a.comp, a.comm, a.sync) != (b.comp, b.comm, b.sync):
                drift.append(phase)
        status = "ok"
        if drift:
            status = f"TIMING DRIFT in phases {drift}"
            failures += 1
        for warning in sanitized.extra["sanitizer_warnings"]:
            print(f"  {label}: {warning.format()}")
        print(f"  {label}: 0 sanitizer violations, {status}")
    print(f"analyze: sanitized runs {'passed' if failures == 0 else 'FAILED'}")
    return failures


def _analyze_static(args: argparse.Namespace, determinism: list) -> int:
    """The ``repro analyze --static`` layer; returns the failure count.

    Static schedule verification (REP4xx) over every strategy and
    middleware up to ``--bound`` ranks, plus the lint pass's determinism
    findings (REP5xx), and optional SARIF output.
    """
    from .analysis.static_schedule import verify_static

    diags = verify_static(bound=args.bound) + determinism
    for diag in diags:
        print(diag.format())
        if args.github:
            print(_github_annotation(diag))
    if args.sarif:
        from .analysis.sarif import write_sarif

        write_sarif(args.sarif, diags)
        print(f"analyze: SARIF written to {args.sarif}")

    failures = sum(1 for d in diags if d.severity == "error")
    print(
        f"analyze: static verification (bound {args.bound}) + determinism lint: "
        f"{failures} error(s), {len(diags) - failures} warning(s)"
    )
    return failures


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.bound < 1:
        print("error: bound must be >= 1", file=sys.stderr)
        return 2
    if args.sarif and not os.access(os.path.dirname(os.path.abspath(args.sarif)), os.W_OK):
        print(f"error: cannot write SARIF to {args.sarif}", file=sys.stderr)
        return 2
    failures, determinism = _analyze_lint(list(args.paths), github=args.github)
    if args.static:
        failures += _analyze_static(args, determinism)
    if args.sanitize_run:
        failures += _analyze_sanitize_run(args.steps)
    return 1 if failures else 0


def _design_points(args: argparse.Namespace):
    """The design-point list shared by ``campaign run`` and ``serve``."""
    from .core.design import DesignPoint, full_factorial, one_factor_at_a_time
    from .core.factors import FOCAL_POINT, PAPER_FACTOR_SPACE

    try:
        levels = tuple(int(p) for p in args.ranks.split(","))
    except ValueError:
        raise ValueError(f"bad --ranks {args.ranks!r}") from None
    if min(levels) < 1:
        raise ValueError(f"ranks must be >= 1, got {min(levels)}")
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")
    if args.design == "full":
        points = full_factorial(
            PAPER_FACTOR_SPACE, processor_levels=levels, replicates=args.replicates
        )
    elif args.design == "paper":
        points = one_factor_at_a_time(PAPER_FACTOR_SPACE, processor_levels=levels)
    else:
        points = [
            DesignPoint(config=FOCAL_POINT, n_ranks=p, replicate=r)
            for p in levels
            for r in range(args.replicates)
        ]
    strategy = getattr(args, "strategy", "replicated")
    if strategy != "replicated":
        import dataclasses

        points = [dataclasses.replace(pt, strategy=strategy) for pt in points]
    return points


def _campaign_engine(args: argparse.Namespace, n_workers: int = 0, **kw):
    from . import CampaignEngine, MDRunConfig, ResultStore
    from .campaign.workloads import build_workload

    # an unknown workload or a bad setting raises before the store exists
    system, _ = build_workload(args.workload)
    if getattr(args, "strategy", "replicated") == "spatial" and system.uses_pme:
        raise ValueError(
            f"--strategy spatial needs a cutoff-only workload; {args.workload} uses PME"
        )
    engine = CampaignEngine(
        workload=args.workload,
        config=MDRunConfig(n_steps=args.steps),
        base_seed=args.seed,
        n_workers=n_workers,
        **kw,
    )
    engine.store = ResultStore(args.store)
    return engine


def _format_metrics(metrics: dict, indent: str = "    ") -> list[str]:
    """A metrics snapshot document as readable key/value lines."""
    lines = []
    for name, doc in sorted(metrics.get("counters", {}).items()):
        lines.append(f"{indent}{name} = {doc['total']}")
        for label, count in sorted(doc.get("labels", {}).items()):
            lines.append(f"{indent}  {label}: {count}")
    for name, value in sorted(metrics.get("gauges", {}).items()):
        lines.append(f"{indent}{name} = {value}")
    for name, doc in sorted(metrics.get("histograms", {}).items()):
        mean = doc["sum"] / doc["count"] if doc.get("count") else 0.0
        lines.append(
            f"{indent}{name}: n={doc.get('count', 0)} mean={mean:.4g} "
            f"min={doc.get('min', 0):.4g} max={doc.get('max', 0):.4g}"
        )
    return lines


def _missing_store(store: str) -> bool:
    """Report a store directory that does not exist; opening one creates it."""
    from pathlib import Path

    if Path(store).is_dir():
        return False
    print(f"error: store directory {store} does not exist", file=sys.stderr)
    return True


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import CampaignManifest, ResultStore
    from .campaign.board import board_from_url
    from .campaign.dashboard import dashboard
    from .campaign.leases import LeaseBoardError

    if _missing_store(args.store):
        return 2
    default = Path(args.store) / "leases.json"
    board = None
    if args.board or default.exists():
        try:
            board = board_from_url(args.board or default)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    store = ResultStore(args.store)
    stats = store.describe()
    print(
        f"store {stats['root']}: {stats['entries']} entries in "
        f"{stats['shards']} shard(s), {stats['bytes']} bytes, "
        f"schema v{stats['schema']}"
    )
    if board is not None:
        try:
            print(dashboard(store, board, runlog=args.runlog))
        except LeaseBoardError as exc:
            print(f"board unavailable: {exc}")
    manifest_dir = Path(args.store) / "manifests"
    for path in sorted(manifest_dir.glob("*.json")):
        try:
            man = CampaignManifest.read(path)
        except (ValueError, KeyError):
            print(f"  {path.name}: unreadable manifest", file=sys.stderr)
            continue
        print("  " + man.summary_line())
        if args.metrics and man.metrics:
            for line in _format_metrics(man.metrics):
                print(line)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.campaign_command == "run":
        try:
            points = _design_points(args)
            engine = _campaign_engine(
                args,
                n_workers=args.workers,
                timeout=args.timeout,
                retries=args.retries,
                sanitize=args.sanitize_run,
                trace_dir=args.trace_dir,
            )
            result = engine.run(points, progress=print)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.manifest.summary_line())
        return 0 if result.ok else 1

    if args.campaign_command == "status":
        return _cmd_campaign_status(args)

    if args.campaign_command == "gc":
        from . import ResultStore

        if _missing_store(args.store):
            return 2
        kept, dropped = ResultStore(args.store).gc()
        print(f"gc: kept {kept} entr{'y' if kept == 1 else 'ies'}, dropped {dropped}")
        return 0

    if args.campaign_command == "analyze":
        from .campaign.analytics import AnalysisError, render, run_analysis

        try:
            report = run_analysis(
                args.kind, args.store, series=args.series, save=not args.no_save
            )
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = render(report, args.fmt)
        if args.output:
            try:
                Path(args.output).write_text(text)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
                return 2
            print(f"analyze {args.kind}: wrote {args.fmt} to {args.output}")
        else:
            sys.stdout.write(text)
        return 0 if report.get("ok", True) else 1

    if args.campaign_command == "verify":
        if _missing_store(args.store):
            return 2
        try:
            engine = _campaign_engine(args)
            mismatches = engine.verify(sample=args.sample, n_workers=args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for m in mismatches:
            print(
                f"  MISMATCH {m['label']} field {m['field']}: "
                f"stored {m['stored']!r} != rerun {m['rerun']!r}"
            )
        status = "ok" if not mismatches else "FAILED"
        print(f"verify: sampled cached points re-ran bit-identically: {status}")
        return 0 if not mismatches else 1

    if args.campaign_command == "serve":
        from .campaign import publish_campaign
        from .campaign.leases import LeaseBoardError

        board = args.board or str(Path(args.store) / "leases.json")
        try:
            points = _design_points(args)
            summary = publish_campaign(_campaign_engine(args), points, board)
        except (ValueError, LeaseBoardError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"serve: published {summary['leases']} leases to {board} "
            f"({summary['pending']} pending, {summary['done']} already done, "
            f"campaign {summary['campaign_id']})"
        )
        return 0

    if args.campaign_command == "work":
        import os
        import platform

        from . import ResultStore, work_campaign
        from .campaign.leases import LeaseBoardError

        board = args.board
        if board is None:
            print("error: campaign work needs --board file:PATH|http://HOST:PORT",
                  file=sys.stderr)
            return 2
        worker = args.worker or f"{platform.node()}-{os.getpid()}"
        try:
            stats = work_campaign(
                board,
                ResultStore(args.store),
                worker,
                ttl=args.ttl,
                max_points=args.max_points,
                progress=print,
            )
        except (ValueError, LeaseBoardError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"work: {worker} claimed {stats['claimed']} "
            f"({stats['executed']} executed, {stats['hits']} already held, "
            f"{stats['failed']} failed, {stats['lost']} reclaimed mid-run)"
        )
        return 0 if stats["failed"] == 0 else 1

    if args.campaign_command == "merge":
        from . import ResultStore, merge_into_store
        from .campaign import StoreConflictError, verify_stores_match

        missing = [src for src in args.sources if not Path(src).exists()]
        if missing:
            print(f"error: merge source {', '.join(missing)} does not exist",
                  file=sys.stderr)
            return 2
        try:
            stats = merge_into_store(ResultStore(args.store), args.sources)
        except (StoreConflictError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        manifest = stats["manifest"]
        print(
            f"merge: {stats['imported']} imported, {stats['duplicates']} duplicate, "
            f"{stats['corrupt']} corrupt line(s) skipped from {stats['sources']} "
            f"source(s); store now holds {stats['entries']} entries "
            f"(manifest {manifest.campaign_id})"
        )
        if args.expect is not None:
            problems = verify_stores_match(ResultStore(args.store), ResultStore(args.expect))
            for line in problems:
                print(f"  MISMATCH {line}")
            verdict = "ok" if not problems else "FAILED"
            print(f"merge: destination matches {args.expect} key-for-key: {verdict}")
            return 0 if not problems else 1
        return 0

    if args.campaign_command == "coordinator":
        import asyncio

        from .campaign.coordinator import CoordinatorServer
        from .instrument.runlog import RunLog

        state = Path(args.state)
        runlog = RunLog(state.with_suffix(state.suffix + ".runlog.jsonl"))
        server = CoordinatorServer(
            state, host=args.host, port=args.port, runlog=runlog,
            report_dir=args.reports,
        )

        async def _serve() -> None:
            await server.start()
            print(
                f"coordinator: serving {server.url} (state {state}) — "
                "publish with `campaign serve --board`, pull with "
                "`campaign work --board`",
                flush=True,
            )
            await server.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("coordinator: stopped")
        except OSError as exc:
            print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        return 0

    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
