"""Command-line entry point: regenerate any figure or table.

``bwap-repro fig1a | fig1b | fig2 | fig3ab | fig3cd | fig4 | table1 |
table2 | ablations | all``

``bwap-repro bench-compare`` diffs freshly emitted ``BENCH_*.json`` perf
ledger files against the committed baselines and exits non-zero on a
regression beyond tolerance.

``bwap-repro learn dataset | train | eval`` builds the oracle-labelled
training set (store-resumable), fits the warm-start DWP predictor, and
scores a checkpoint (see :mod:`repro.learn`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple


#: Experiment name -> (module under :mod:`repro.experiments`, runner
#: names): each runner is called without arguments and the renders of its
#: results are joined by a blank line. ``machines`` (``None``) runs
#: nothing; it describes the built-in topologies.
EXPERIMENTS: Dict[str, Optional[Tuple[str, Tuple[str, ...]]]] = {
    "fleet": ("fleet", ("run_fleet",)),
    "fleet-chaos": ("fleet_chaos", ("run_fleet_chaos",)),
    "warmstart": ("warmstart", ("run_warmstart",)),
    "fig1a": ("fig1", ("run_fig1a",)),
    "fig1b": ("fig1", ("run_fig1b",)),
    "fig2": ("fig2", ("run_fig2",)),
    "fig3ab": ("fig3", ("run_fig3ab",)),
    "fig3cd": ("fig3", ("run_fig3cd",)),
    "fig4": ("fig4", ("run_fig4",)),
    "table1": ("table1", ("run_table1",)),
    "table2": ("table2", ("run_table2",)),
    "ablations": ("ablations", (
        "run_canonical_ablation", "run_interleave_ablation", "run_overhead",
        "run_dwp_probe_ablation",
    )),
    "extensions": ("extensions", ("run_split_study", "run_adaptive_study", "run_hybrid_study")),
    "machines": None,
    "sensitivity": ("sensitivity", (
        "run_asymmetry_sweep", "run_oracle_asymmetry_sweep", "run_worker_sweep",
    )),
    "robustness": ("robustness", ("run_robustness",)),
    "fault-matrix": ("fault_matrix", ("run_fault_matrix",)),
}


def _render(name: str) -> str:
    """Run one experiment of :data:`EXPERIMENTS` and render its report,
    importing its module only now."""
    entry = EXPERIMENTS[name]
    if entry is None:
        from repro.topology import describe, hybrid_dram_nvm, machine_a, machine_b

        return "\n\n".join(describe(m) for m in (machine_a(), machine_b(), hybrid_dram_nvm()))
    module, runners = entry
    mod = importlib.import_module(f"repro.experiments.{module}")
    return "\n\n".join(getattr(mod, runner)().render() for runner in runners)


def bench_compare_main(argv) -> int:
    """Diff the current perf-ledger files against the committed baseline.

    For every ``BENCH_*.json`` in the baseline directory, each *guarded*
    metric (higher-is-better ratios the benchmark nominated) of the
    current run must reach ``baseline * (1 - tolerance)``; a shortfall or
    a missing current file fails the comparison, and so does a missing
    metric, unless a quick run lists it as ``skipped`` (too costly for a
    quick run). Unguarded metrics are trajectory data and only reported.
    """
    parser = argparse.ArgumentParser(
        prog="bwap-repro bench-compare",
        description="Compare freshly emitted BENCH_*.json perf-ledger files "
        "against the committed baselines.",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path.cwd(),
        metavar="DIR",
        help="directory holding the committed ledger (default: cwd)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory holding the fresh run's ledger files "
        "(default: the BWAP_LEDGER_DIR environment variable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="allowed relative drop in a guarded metric before failing "
        "(default 0.5: CI runners are noisy; the committed numbers come "
        "from quiet machines)",
    )
    args = parser.parse_args(argv)

    current_dir = args.current
    if current_dir is None:
        env = os.environ.get("BWAP_LEDGER_DIR")
        if not env:
            parser.error("--current not given and BWAP_LEDGER_DIR not set")
        current_dir = Path(env)
    if not 0 <= args.tolerance < 1:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench-compare: no BENCH_*.json baselines in {args.baseline}")
        return 1

    failures = []
    for base_path in baselines:
        base = json.loads(base_path.read_text())
        name = base.get("name", base_path.stem[len("BENCH_") :])
        cur_path = current_dir / base_path.name
        if not cur_path.is_file():
            failures.append(f"{name}: no current ledger at {cur_path}")
            continue
        cur = json.loads(cur_path.read_text())
        for metric in base.get("guarded", []):
            ref = base["metrics"].get(metric)
            got = cur.get("metrics", {}).get(metric)
            if ref is None:
                continue
            if got is None:
                if cur.get("quick") and metric in cur.get("skipped", ()):
                    print(f"  {name:>14s} {metric:<16s} skipped in a quick run")
                else:
                    failures.append(f"{name}: guarded metric {metric!r} missing")
                continue
            floor = ref * (1.0 - args.tolerance)
            verdict = "ok" if got >= floor else "REGRESSION"
            print(
                f"  {name:>14s} {metric:<16s} baseline {ref:9.3f}  "
                f"current {got:9.3f}  floor {floor:9.3f}  {verdict}"
            )
            if got < floor:
                failures.append(
                    f"{name}: {metric} regressed to {got:.3f} "
                    f"(< {floor:.3f} = {ref:.3f} - {args.tolerance:.0%})"
                )
    if failures:
        print("bench-compare: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench-compare: ok ({len(baselines)} ledgers, tolerance "
          f"{args.tolerance:.0%})")
    return 0


def learn_main(argv) -> int:
    """The ``bwap-repro learn`` verb: dataset / train / eval.

    ``dataset`` builds (or resumes) the oracle-labelled training set —
    every row goes through the content-addressed result store, so an
    interrupted build picks up where it stopped, and the store hit/miss
    statistics are reported on stderr (stdout carries only the summary).
    ``train`` fits the ridge model and writes a versioned deterministic
    checkpoint; ``eval`` scores a checkpoint against a dataset.
    """
    parser = argparse.ArgumentParser(
        prog="bwap-repro learn",
        description="Learned DWP warm-start: build datasets, train and "
        "evaluate the predictor (see repro.learn).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dataset", help="build or resume the training set")
    d.add_argument("--out", type=Path, default=Path("data/dwp_dataset.npz"))
    d.add_argument("--num-random", type=int, default=400, metavar="N",
                   help="random-topology rows on top of the Table-I suite")
    d.add_argument("--seed", type=int, default=20260808)
    d.add_argument("--no-suite", action="store_true",
                   help="skip the 25 Table-I suite rows")
    d.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                   help="fan row building out over N worker processes")
    d.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                   help="print build progress to stderr every SECONDS")
    d.add_argument("--no-store", action="store_true",
                   help="recompute every row (equivalent to BWAP_STORE=0)")

    t = sub.add_parser("train", help="fit the ridge model, write a checkpoint")
    t.add_argument("--dataset", type=Path, required=True)
    t.add_argument("--out", type=Path, default=None,
                   help="checkpoint path (default: the committed model)")
    t.add_argument("--l2", type=float, default=1.0)
    t.add_argument("--linear", action="store_true",
                   help="drop the degree-2 feature basis")
    t.add_argument("--holdout-seed", type=int, default=0)

    e = sub.add_parser("eval", help="score a checkpoint against a dataset")
    e.add_argument("--dataset", type=Path, required=True)
    e.add_argument("--model", type=Path, default=None,
                   help="checkpoint path (default: the committed model)")

    args = parser.parse_args(argv)
    from repro.learn import (
        DEFAULT_CHECKPOINT,
        Dataset,
        RidgeModel,
        build_dataset,
        default_row_specs,
        evaluate,
        holdout_evaluate,
        train_ridge,
    )

    if args.command == "dataset":
        if args.no_store:
            os.environ["BWAP_STORE"] = "0"
        if args.heartbeat is not None:
            if args.heartbeat <= 0:
                parser.error("--heartbeat must be a positive number of seconds")
            os.environ["BWAP_HEARTBEAT"] = str(args.heartbeat)
        specs = default_row_specs(
            num_random=args.num_random,
            seed=args.seed,
            include_suite=not args.no_suite,
        )
        dataset = build_dataset(specs, jobs=args.jobs)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        dataset.save(args.out)
        print(
            f"dataset: {dataset.X.shape[0]} rows x {dataset.X.shape[1]} "
            f"features -> {args.out}"
        )
        from repro.store import get_default_store

        store = get_default_store()
        if store is not None and store.stats.lookups:
            # stderr, like every sweep: stdout stays identical to --no-store.
            print(f"result store: {store.stats.summary()}", file=sys.stderr)
        return 0

    if args.command == "train":
        dataset = Dataset.load(args.dataset)
        model = train_ridge(dataset, l2=args.l2, quadratic=not args.linear)
        out = args.out if args.out is not None else Path(DEFAULT_CHECKPOINT)
        out.parent.mkdir(parents=True, exist_ok=True)
        model.save(out)
        train_m = evaluate(model, dataset)
        hold_m = holdout_evaluate(
            dataset, seed=args.holdout_seed, l2=args.l2,
            quadratic=not args.linear,
        )
        print(f"checkpoint -> {out}")
        print(f"train:   mae {train_m['mae']:.3f}  rmse {train_m['rmse']:.3f}  "
              f"within 0.10: {train_m['within_0_10']:.0%}")
        print(f"holdout: mae {hold_m['mae']:.3f}  rmse {hold_m['rmse']:.3f}  "
              f"within 0.10: {hold_m['within_0_10']:.0%}")
        return 0

    # eval
    dataset = Dataset.load(args.dataset)
    path = args.model if args.model is not None else Path(DEFAULT_CHECKPOINT)
    model = RidgeModel.load(path)
    metrics = evaluate(model, dataset)
    print(f"{path}: n {metrics['n']:.0f}  mae {metrics['mae']:.3f}  "
          f"rmse {metrics['rmse']:.3f}  "
          f"within 0.05: {metrics['within_0_05']:.0%}  "
          f"within 0.10: {metrics['within_0_10']:.0%}")
    return 0


def store_prune_main(argv) -> int:
    """Evict old or excess entries from the content-addressed store.

    Pruned entries become clean misses: the next run recomputes and
    rewrites them, so pruning only trades disk for compute.
    """
    parser = argparse.ArgumentParser(
        prog="bwap-repro store-prune",
        description="Prune the content-addressed result store by age "
        "and/or total size.",
    )
    parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict entries older than this many days",
    )
    parser.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="MB",
        help="after the age pass, evict oldest entries until the store "
        "fits in this many megabytes",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="store root (default: BWAP_STORE_DIR, else the user cache)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without deleting anything",
    )
    args = parser.parse_args(argv)
    if args.max_age_days is None and args.max_size_mb is None:
        parser.error("give --max-age-days and/or --max-size-mb")
    if args.max_age_days is not None and args.max_age_days < 0:
        parser.error("--max-age-days must be >= 0")
    if args.max_size_mb is not None and args.max_size_mb < 0:
        parser.error("--max-size-mb must be >= 0")

    from repro.store import ResultStore, default_store_root

    root = args.dir if args.dir is not None else default_store_root()
    store = ResultStore(root)
    stats = store.prune(
        max_age_s=None if args.max_age_days is None else args.max_age_days * 86400.0,
        max_bytes=None if args.max_size_mb is None else int(args.max_size_mb * 1e6),
        dry_run=args.dry_run,
    )
    verb = "store-prune (dry run):" if args.dry_run else "store-prune:"
    print(f"{verb} {root}: {stats.summary()}")
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench-compare":
        return bench_compare_main(argv[1:])
    if argv and argv[0] == "store-prune":
        return store_prune_main(argv[1:])
    if argv and argv[0] == "learn":
        return learn_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="bwap-repro",
        description="Regenerate the BWAP paper's figures and tables on the "
        "simulated NUMA substrate.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan scenario sweeps out over N worker processes "
        "(default: serial, or the BWAP_JOBS environment variable); "
        "results are merged in order, so output is identical to serial",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each experiment under cProfile and print the top-20 "
        "entries by cumulative time after its output",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="bypass the content-addressed result store (recompute every "
        "scenario; equivalent to BWAP_STORE=0)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print sweep progress (completed/total, store hit rate) to "
        "stderr every SECONDS; stdout and results are unaffected "
        "(equivalent to BWAP_HEARTBEAT=SECONDS)",
    )
    args = parser.parse_args(argv)

    if args.no_store:
        # Via the environment so --jobs worker processes inherit it too.
        os.environ["BWAP_STORE"] = "0"
    if args.heartbeat is not None:
        if args.heartbeat <= 0:
            parser.error("--heartbeat must be a positive number of seconds")
        os.environ["BWAP_HEARTBEAT"] = str(args.heartbeat)
    if args.jobs is not None:
        from repro.obs import set_default_jobs

        set_default_jobs(args.jobs)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        profiler = None
        t0 = time.perf_counter()
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            output = profiler.runcall(_render, name)
        else:
            output = _render(name)
        dt = time.perf_counter() - t0
        print(f"=== {name} ({dt:.1f}s) ===")
        print(output)
        print()
        if profiler is not None:
            import pstats

            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(20)

    from repro.store import get_default_store

    store = get_default_store()
    if store is not None and store.stats.lookups:
        # stderr, so stdout stays bitwise-identical to a --no-store run.
        print(f"result store: {store.stats.summary()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
