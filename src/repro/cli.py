"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run one of the bundled scenarios (quickstart-style) without writing
    any code: build the paper's workload, reorganize a partition on-line
    with the chosen algorithm, and report interference + integrity.

``bench``
    Run one experiment of the registry (``repro.bench.EXPERIMENTS``:
    the paper's Table 2, Figures 6-11, §5.3.4 and ablations, and the
    extension experiments — ``repro bench --help`` lists them, generated
    from the registry) and print its data table and verdict.  Exits 1
    when the verdict does not hold, or, with ``--compare BENCH.json``,
    when the run differs from the committed figure in any simulated
    metric, kernel counter or the verdict.

``inspect``
    Build the workload and print the database's physical layout
    (partitions, pages, fragmentation, ERT sizes).  ``--pages PID``
    zooms into one partition: per-page fill fraction and which objects
    co-reside on each page.

``cluster``
    Trace the workload on-line for a while, then print the affinity
    statistics (hot objects, co-access edges), the clustering advisor's
    partition ranking, and the DSTC placement it would build for the
    recommended partition.

``chaos``
    Crash-point sweep: crash a reorganization run at N distinct points
    (or one chosen point via ``--crash-at``), recover, resume from the
    WAL progress records, and verify integrity + graph isomorphism +
    no-re-migration after every cycle.  ``--corruption`` adds the
    silent-corruption dimension (torn checkpoint pages, durable bit
    flips, torn log tails) with zero-silent-corruption accounting.

``verify``
    Build a workload database, reorganize it under load, checkpoint,
    crash and recover, then deep-verify every durability surface (live
    page checksums, snapshot checksums, log decodability, reference
    integrity).  Exits non-zero on any finding; ``--corrupt`` plants
    one deliberate corruption first to prove the sweep catches it.

``explore``
    Schedule-space exploration (see EXPLORING.md): run the workload +
    reorganization many times under permuted same-timestamp schedules
    and bounded preemptions, judging every run with the oracle suite
    (serializability, transparency, lock footprint, recovery
    idempotence, deep verify).  Failures are minimized and serialized
    as replayable artifacts; ``--replay FILE`` reproduces one in a
    fresh process, ``--mutation NAME`` plants a known bug to prove the
    oracles fire.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import (
    EXPERIMENTS,
    SCALES,
    compare_figure,
    load_baseline,
    new_baseline,
    run,
    save_baseline,
)
from .config import ExperimentConfig, ReorgConfig, SystemConfig, WorkloadConfig
from .core import CompactionPlan
from .database import Database, REORGANIZERS
from .explore.mutations import MUTATIONS
from .workload import WorkloadDriver


_SCALE_HELP = {
    "partitions": "number of data partitions (default {})",
    "objects": "objects per partition, multiple of 85 (default {})",
    "mpl": "concurrent transaction threads (default {})",
}


def _add_scale_arguments(parser: argparse.ArgumentParser,
                         partitions: int = 3, objects: int = 1020,
                         mpl: int = 8, seed: int = 42,
                         texts: dict = _SCALE_HELP) -> None:
    """The four workload-size flags ``_workload`` reads, with this
    command's defaults (``texts``: flag -> help, ``{}`` = the default)."""
    for flag, default in (("partitions", partitions), ("objects", objects),
                          ("mpl", mpl), ("seed", seed)):
        text = texts.get(flag)
        parser.add_argument(f"--{flag}", type=int, default=default,
                            help=text and text.format(default))


def _workload(args) -> WorkloadConfig:
    return WorkloadConfig(num_partitions=args.partitions,
                          objects_per_partition=args.objects,
                          mpl=args.mpl, seed=args.seed)


def cmd_demo(args) -> int:
    workload = _workload(args)
    # ``--locks flat`` keeps the default-construction path (and its
    # byte-identical schedules); only the hierarchical choice builds an
    # explicit system config.
    system = None
    if args.locks == "hier":
        system = SystemConfig(lock_manager="hier",
                              lock_escalate_after=args.escalate_after)
    db, layout = Database.with_workload(workload, system=system)
    print(f"loaded {workload.num_partitions} x "
          f"{workload.objects_per_partition} objects; running "
          f"{args.algorithm} on partition 1 under MPL {workload.mpl} "
          f"({args.locks} locks) ...")
    driver = WorkloadDriver(db.engine, layout,
                            ExperimentConfig(workload=workload))
    metrics = driver.run(reorganizer=db.reorganizer(
        1, args.algorithm, plan=CompactionPlan()))
    stats = metrics.reorg_stats
    print(f"\n  objects migrated     {stats.objects_migrated}")
    print(f"  parent refs patched  {stats.parent_patches}")
    print(f"  max locks held       {stats.max_locks_held}")
    print(f"  reorg duration       {stats.duration_ms / 1000:.1f} s "
          f"(simulated)")
    print(f"\n  concurrent txns      {metrics.completed} committed at "
          f"{metrics.throughput_tps:.1f} tps")
    print(f"  avg / max response   {metrics.avg_response_ms:.0f} / "
          f"{metrics.max_response_ms:.0f} ms")
    print(f"  aborts / retries     {metrics.aborts} / "
          f"{metrics.total_retries}")
    print(f"  reorg dl-retries     {stats.deadlock_retries} "
          f"(backoff {stats.backoff_ms_total:.0f} ms)")
    print(f"  deadlock aborts      {metrics.deadlock_aborts} "
          f"({metrics.deadlock_victims} cycle victims, "
          f"{metrics.retry_budget_exhausted} gave up)")
    print(f"  p99 / p999 response  {metrics.p99_response_ms:.0f} / "
          f"{metrics.p999_response_ms:.0f} ms")
    print(f"  lock manager         {metrics.locks['manager']}: "
          f"{metrics.locks['acquires']} acquires, "
          f"{metrics.locks['conflicts']} conflicts, "
          f"{metrics.locks['escalations']} escalations "
          f"({metrics.locks['deescalations']} undone), "
          f"table peak {metrics.locks['table_peak']}")
    report = db.verify_integrity()
    print(f"\n  integrity: {'OK' if report.ok else 'BROKEN'}")
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    figure_key = f"{args.experiment}/{args.scale}"
    recorded = None
    if args.json:
        # Only a missing file starts a new baseline: an unreadable or
        # wrong-schema one holds something overwriting would destroy.
        try:
            recorded = load_baseline(args.json)
        except FileNotFoundError:
            recorded = new_baseline()
        except (OSError, ValueError) as exc:
            print(f"refusing to overwrite {args.json}: {exc}",
                  file=sys.stderr)
            return 1
    # Loaded before the run: a stale or unreadable file fails at once.
    committed = load_baseline(args.compare) if args.compare else None

    text, payload = run(
        args.experiment, args.scale,
        progress=lambda line: print(f"  {line}", file=sys.stderr))
    print(text)

    if recorded is not None:
        recorded["figures"][figure_key] = payload
        save_baseline(args.json, recorded)
        print(f"wrote {figure_key} to {args.json}", file=sys.stderr)

    if committed is not None:
        # The committed figure is the expectation, verdict included.
        problems = compare_figure(figure_key, payload, committed)
        for problem in problems:
            print(f"BENCH DRIFT: {problem}", file=sys.stderr)
        if not problems:
            print(f"{figure_key}: simulated metrics, counters and verdict "
                  f"identical to {args.compare}", file=sys.stderr)
        return 1 if problems else 0
    return 0 if payload["holds"] else 1


def cmd_inspect(args) -> int:
    workload = _workload(args)
    db, layout = Database.with_workload(workload)
    if args.pages is not None:
        return _inspect_pages(db, args.pages)
    print(f"{'partition':>9} {'objects':>8} {'pages':>6} {'frag':>7} "
          f"{'ERT entries':>12}")
    for pid in db.store.partition_ids():
        stats = db.partition_stats(pid)
        ert = db.engine.ert_for(pid)
        print(f"{pid:>9} {stats.live_objects:>8} {stats.page_count:>6} "
              f"{stats.fragmentation:>7.1%} {len(ert):>12}")
    report = db.verify_integrity()
    print(f"\nintegrity: {'OK' if report.ok else report.problems()[:3]}")
    return 0


def _inspect_pages(db, partition_id: int) -> int:
    """Per-page occupancy and co-residency for one partition."""
    from .storage.oid import Oid
    store = db.store
    if not store.has_partition(partition_id):
        print(f"no partition {partition_id} "
              f"(have: {store.partition_ids()})", file=sys.stderr)
        return 1
    part = store.partition(partition_id)
    print(f"partition {partition_id}: {part.page_count} pages, "
          f"page size {part.page_size} B, relocation floor "
          f"{part.relocation_floor}")
    print(f"{'page':>5} {'slots':>6} {'fill':>6}  co-resident objects")
    for page_no in part.page_numbers():
        page = part.page(page_no)
        oids = [str(Oid(partition_id, page_no, slot))
                for slot in page.slots()]
        fill = page.used_bytes / part.page_size
        shown = ", ".join(oids[:6]) + (f", … +{len(oids) - 6}"
                                       if len(oids) > 6 else "")
        print(f"{page_no:>5} {len(oids):>6} {fill:>6.0%}  {shown or '-'}")
    return 0


def cmd_cluster(args) -> int:
    from .cluster import (ClusteringAdvisor, ClusterTracer, DSTCClusterer,
                          objects_per_page)
    workload = _workload(args)
    db, layout = Database.with_workload(workload)
    engine = db.engine
    tracer = engine.subscribe(ClusterTracer(pair_window=args.pair_window))
    print(f"tracing {workload.mpl} threads over "
          f"{workload.num_partitions} x "
          f"{workload.objects_per_partition} objects for "
          f"{args.trace_ms / 1000:.0f} s (simulated) ...")
    driver = WorkloadDriver(engine, layout,
                            ExperimentConfig(workload=workload))
    driver.run(horizon_ms=args.trace_ms)
    engine.unsubscribe(tracer)
    graph = tracer.graph
    print(f"traced {tracer.commits} commits: {graph.accesses} accesses, "
          f"{graph.pairs} co-access pairs ({len(graph.heat)} objects and "
          f"{len(graph.edges)} edges tracked after decay)")

    print(f"\ntop {args.top} hot objects (decayed heat):")
    for oid, heat in graph.top_hot(args.top):
        print(f"  {oid!s:>12}  {heat:8.2f}")
    print(f"\ntop {args.top} affinity edges (decayed weight):")
    for (a, b), weight in graph.top_edges(args.top):
        print(f"  {a!s:>12} -- {b!s:<12} {weight:8.2f}")

    advisor = ClusteringAdvisor(graph)
    # Partition 0 holds the persistent-root stubs, not workload data.
    candidates = [pid for pid in db.store.partition_ids() if pid != 0]
    print("\nadvisor ranking, data partitions "
          "(score = fragmentation + scatter x heat-share):")
    for advice in advisor.rank(engine, candidates):
        print(f"  {advice.describe()}")
    best = advisor.recommend(engine, candidates)
    if best is None:
        print("\nrecommendation: nothing worth reorganizing")
        return 0
    pid = best.partition_id
    per_page = objects_per_page(engine, pid)
    placement = DSTCClusterer().build(
        list(db.store.live_oids(pid)), graph, per_page)
    sizes = [len(cluster) for cluster in placement.clusters]
    print(f"\nrecommendation: reorganize partition {pid} "
          f"(score {best.score:.3f})")
    print(f"  DSTC placement: {len(sizes)} clusters covering "
          f"{placement.placed_count} hot objects "
          f"(target {per_page} objects/page"
          + (f", largest cluster {max(sizes)}" if sizes else "") + ")")
    print("  run it: repro demo --algorithm ira  # with an "
          "AffinityClusteringPlan(graph)")
    return 0


def _print_failing(results, label) -> None:
    """The failure report of ``chaos``, ``chaos --dist`` and ``explore``:
    each failing result, named by ``label(result)``, with its failing
    verdicts."""
    for result in results:
        if not result.ok:
            print(f"  FAILED {label(result)}:")
            for verdict in result.verdicts:
                if not verdict.ok:
                    print(f"    {verdict.describe()}")


def _cmd_chaos_dist(args) -> int:
    from .dist import run_dist_chaos

    def show(name, result):
        print(f"  {name:<32} {'ok' if result.ok else 'FAIL'}  "
              f"crashes={result.crashes} sim={result.sim_ms:.0f}ms")

    results = run_dist_chaos(quick=args.quick, progress=show)
    passed = sum(1 for result in results if result.ok)
    print(f"\n  scenarios {len(results)}  passed {passed}")
    _print_failing(results, lambda result: result.scenario)
    return 0 if passed == len(results) else 1


def cmd_chaos(args) -> int:
    from .faults import CORRUPTION_KINDS, chaos_sweep, run_chaos_point
    if args.dist:
        return _cmd_chaos_dist(args)
    workload = _workload(args)
    reorg_config = ReorgConfig(checkpoint_every=args.checkpoint_every)
    kinds = ()
    if args.corruption != "none":
        kinds = (CORRUPTION_KINDS if args.corruption == "all"
                 else (args.corruption,))
    if args.crash_at is not None:
        result = run_chaos_point(args.crash_at, algorithm=args.algorithm,
                                 workload=workload,
                                 reorg_config=reorg_config, seed=args.seed,
                                 corruption=kinds[0] if kinds else None)
        print(result.describe())
        points = [result]
        ok = result.ok and not result.silent_corruption
    else:
        report = chaos_sweep(points=args.points, algorithm=args.algorithm,
                             workload=workload, reorg_config=reorg_config,
                             seed=args.seed, kinds=kinds,
                             progress=lambda line: print(f"  {line}"))
        print()
        for key, value in report.summary().items():
            print(f"  {key:>21}: {value}")
        points = report.points
        ok = report.all_ok and (not kinds or report.no_silent_corruption)
    _print_failing(points, lambda point: f"crash@{point.crash_at_ms:.1f}ms")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    import random

    from .verify import deep_verify
    workload = _workload(args)
    db, layout = Database.with_workload(workload)
    print(f"built {workload.num_partitions} x "
          f"{workload.objects_per_partition} objects; reorganizing "
          f"partition 1 under MPL {workload.mpl} ...")
    driver = WorkloadDriver(db.engine, layout,
                            ExperimentConfig(workload=workload))
    driver.run(reorganizer=db.reorganizer(1, "ira", plan=CompactionPlan()))
    db.checkpoint()
    if not args.skip_recovery:
        print("crashing and running restart recovery ...")
        db = Database.recover(db.crash())
    engine = db.engine
    if args.corrupt != "none":
        # Deliberate damage, planted behind the maintenance APIs so the
        # checksums cannot know about it — the verify sweep must catch
        # it or exit 0 would be a lie.
        rng = random.Random(f"verify/{args.seed}")
        store = engine.store
        if args.corrupt == "page":
            keys = [(pid, page_no) for pid in store.partition_ids()
                    for page_no in store.partition(pid).page_numbers()]
            pid, page_no = keys[rng.randrange(len(keys))]
            page = store.partition(pid).page(page_no)
            bit = rng.randrange(len(page._buf) * 8)
            page._buf[bit // 8] ^= 1 << (bit % 8)
            print(f"flipped a bit in live page {pid}:{page_no}")
        elif args.corrupt == "snapshot":
            payload = engine.snapshots.load(engine.snapshots.latest())
            states = [state
                      for part in payload["store"]["partitions"].values()
                      for state in part["pages"].values()]
            state = states[rng.randrange(len(states))]
            buf = bytearray(state["buf"])
            bit = rng.randrange(len(buf) * 8)
            buf[bit // 8] ^= 1 << (bit % 8)
            state["buf"] = bytes(buf)
            print("flipped a bit in the latest durable snapshot")
        elif args.corrupt == "log":
            lsn = rng.randrange(1, engine.log.last_lsn + 1)
            encoded = engine.log._encoded[lsn - 1]
            engine.log._encoded[lsn - 1] = encoded[:max(1, len(encoded) // 2)]
            print(f"truncated the stored bytes of log record {lsn}")
    report = deep_verify(engine)
    print()
    print(report.describe())
    return 0 if report.ok else 1


def cmd_explore(args) -> int:
    from .explore import MUTATIONS, explore, replay_artifact

    if args.replay is not None:
        result = replay_artifact(args.replay)
        print(f"replayed {args.replay}:")
        for verdict in result.verdicts:
            print(f"  {verdict.describe()}")
        print(f"  sim end {result.sim_end_ms:.1f} ms, "
              f"trace {result.trace_hash}"
              + (f", mutation {result.mutation} "
                 f"(triggered={result.mutation_triggered})"
                 if result.mutation else ""))
        return 0 if result.ok else 1

    workload = _workload(args)
    report = explore(seeds=args.seeds, depth=args.depth, workload=workload,
                     algorithm=args.algorithm, mutation_name=args.mutation,
                     locks=args.locks, strict=not args.relaxed,
                     out_dir=args.out,
                     progress=lambda line: print(f"  {line}"))
    print(f"\n  distinct schedules   {report.distinct} "
          f"({report.schedules_run} runs)")
    print(f"  baseline choices     {report.baseline_choice_points}")
    print(f"  oracle violations    {len(report.failures)}")
    _print_failing(report.failures, lambda result: result.trace_hash)
    for path in report.artifacts:
        print(f"  artifact             {path}")
    if args.mutation is not None:
        # A mutated run is *supposed* to fail; exit 0 only if the
        # matching oracle caught the planted bug somewhere.
        expected = MUTATIONS[args.mutation].expected_oracle
        caught = any(expected in r.failing() for r in report.failures)
        print(f"  planted {args.mutation}: "
              f"{'caught by ' + expected if caught else 'NOT CAUGHT'}")
        return 0 if caught else 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-line Reorganization in Object Databases "
                    "(SIGMOD 2000) — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="reorganize on-line under load")
    demo.add_argument("--algorithm", default="ira",
                      choices=sorted(REORGANIZERS))
    demo.add_argument("--locks", default="flat", choices=["flat", "hier"],
                      help="lock manager: flat (one granule per object) "
                           "or hier (IS/IX/S/SIX/X over partition/page/"
                           "object with auto-escalation, default flat)")
    demo.add_argument("--escalate-after", type=int, default=8,
                      metavar="N",
                      help="with --locks hier: fine locks on one page "
                           "before escalating to a page lock (default 8, "
                           "0 disables)")
    _add_scale_arguments(demo)
    demo.set_defaults(fn=cmd_demo)

    bench = sub.add_parser(
        "bench", help="run one registered experiment",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiments:\n" + "\n".join(
            f"  {name:<16} {experiment.title}"
            for name, experiment in EXPERIMENTS.items()))
    bench.add_argument("experiment", choices=list(EXPERIMENTS),
                       metavar="experiment")
    bench.add_argument("--json", metavar="FILE",
                       help="record the run's figure (simulated metrics, "
                            "kernel counters, verdict) into FILE, merged "
                            "with the figures it already holds")
    bench.add_argument("--compare", metavar="FILE",
                       help="compare against the committed BENCH.json; "
                            "exit 1 on any drift in simulated metrics, "
                            "kernel counters or the verdict")
    bench.add_argument("--scale", default="quick",
                       choices=sorted(SCALES))
    bench.set_defaults(fn=cmd_bench)

    inspect = sub.add_parser("inspect", help="print the physical layout")
    _add_scale_arguments(inspect)
    inspect.add_argument("--pages", type=int, default=None, metavar="PID",
                         help="zoom into one partition: per-page fill "
                              "and co-resident objects")
    inspect.set_defaults(fn=cmd_inspect)

    cluster = sub.add_parser(
        "cluster", help="trace the workload, print affinity statistics "
                        "and the advisor's recommendation")
    _add_scale_arguments(cluster)
    cluster.add_argument("--trace-ms", type=float, default=10_000.0,
                         help="simulated tracing horizon in ms "
                              "(default 10000)")
    cluster.add_argument("--pair-window", type=int, default=3,
                         help="max in-transaction distance that counts as "
                              "a co-access (default 3)")
    cluster.add_argument("--top", type=int, default=8,
                         help="how many hot objects / edges to print "
                              "(default 8)")
    cluster.set_defaults(fn=cmd_cluster)

    chaos = sub.add_parser("chaos",
                           help="crash-point sweep over a reorg run")
    chaos.add_argument("--algorithm", default="ira",
                       choices=["ira", "ira-2lock"])
    chaos.add_argument("--points", type=int, default=50,
                       help="crash points to sweep (default 50)")
    chaos.add_argument("--crash-at", type=float, default=None,
                       help="run a single point: crash at this simulated "
                            "time (ms) instead of sweeping")
    chaos.add_argument("--checkpoint-every", type=int, default=20,
                       help="reorg progress checkpoint interval "
                            "(migrations, default 20)")
    _add_scale_arguments(
        chaos, partitions=2, objects=340, mpl=4, seed=13,
        texts={"seed": "workload + fault-plan seed (default {})"})
    chaos.add_argument("--corruption", default="none",
                       choices=["none", "all", "torn_page", "bit_flip",
                                "torn_log_tail"],
                       help="inject silent corruption at every point and "
                            "demand detection + repair (default none)")
    chaos.add_argument("--dist", action="store_true",
                       help="sweep the distributed cluster instead: 2PC "
                            "stage crashes, node kills, link partitions "
                            "and message loss, gated on a fault-free twin")
    chaos.add_argument("--quick", action="store_true",
                       help="with --dist: the reduced scenario set")
    chaos.set_defaults(fn=cmd_chaos)

    verify = sub.add_parser("verify",
                            help="crash, recover, deep-verify every "
                                 "durability surface")
    _add_scale_arguments(verify)
    verify.add_argument("--corrupt", default="none",
                        choices=["none", "page", "snapshot", "log"],
                        help="plant one deliberate corruption before "
                             "verifying (the sweep must catch it)")
    verify.add_argument("--skip-recovery", action="store_true",
                        help="verify the live engine without the "
                             "crash/recover cycle")
    verify.set_defaults(fn=cmd_verify)

    explore = sub.add_parser(
        "explore", help="explore perturbed schedules against the oracles")
    explore.add_argument("--seeds", type=int, default=50,
                         help="distinct schedules to explore (default 50)")
    explore.add_argument("--depth", type=int, default=2,
                         help="systematic deviations per schedule "
                              "(default 2)")
    explore.add_argument("--algorithm", default=None,
                         choices=["ira", "ira-2lock", "mvcc"],
                         help="default: ira, or the --mutation's target "
                              "algorithm")
    _add_scale_arguments(
        explore, partitions=2, objects=85, mpl=3, seed=131,
        texts={"objects": _SCALE_HELP["objects"],
               "seed": "workload seed (default {})"})
    explore.add_argument("--locks", default=None,
                         choices=["flat", "hier"],
                         help="lock manager to explore under (default: "
                              "flat, or the --mutation's target manager)")
    explore.add_argument("--relaxed", action="store_true",
                         help="relaxed 2PL (§4.1/§6): read locks release "
                              "at operation end; the serializability "
                              "oracle is skipped, the rest still apply")
    explore.add_argument("--mutation", default=None,
                         choices=sorted(MUTATIONS),
                         help="plant a known reorganizer bug; the run "
                              "then must be caught by its oracle")
    explore.add_argument("--out", default=None, metavar="DIR",
                         help="write minimized replayable failure "
                              "artifacts into DIR")
    explore.add_argument("--replay", default=None, metavar="FILE",
                         help="re-run a failure artifact instead of "
                              "exploring")
    explore.set_defaults(fn=cmd_explore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
