#!/usr/bin/env python3
"""Performance-regression gate for BENCH_solver_micro.json.

Parses the JSON written by bench_solver_micro's comparison harness and fails
(exit 1) when a recorded performance floor is breached:

  * correctness (always enforced):
      - every cold/warm "summary" record and every bound-change "restart"
        record must report
        objectives_match == true (and "restart" records warm_path == true:
        the re-solve actually re-entered from the previous basis);
  * warm-start win (always enforced):
      - the "total" record's pivot_reduction must stay >= --min-pivot-reduction
        (the warm-started incremental simplex is the repo's headline solver
        optimization; see docs/solver.md);
      - the "total" record's warm_pivots must stay <= --max-warm-pivots.
        Pivot counts are deterministic (fixed seeds, deterministic
        branching), so this is a hardware-independent absolute ceiling on
        the whole warm-path sweep. The pre-cut/pre-pseudo-cost baseline was
        83,749 pivots; the default ceiling of 27,916 encodes the >= 3x
        tightening the root cutting planes, presolve probing and
        pseudo-cost branching bought (recorded: ~8.2k, a ~10x tightening);
  * dual-restart win (always enforced):
      - the "restart_total" record's pivot_reduction (cold incremental
        solve of the child LP vs warm dual re-solve after one branching
        bound change) must stay >= --min-restart-reduction. This isolates
        the dual simplex itself from tree-size effects (recorded: ~17x);
  * decomposition win (always enforced):
      - every "decompose" record must report objectives_match == true
        (the stitched decomposed solve certifies the monolithic objective)
        and components_ok == true (the union-find found exactly the number
        of independent blocks the generator built — the component-count
        sanity check);
      - every "decompose" record's speedup_vs_mono must stay
        >= --min-decompose-speedup. This holds on any hardware: the win
        comes from solving k small branch-and-bound trees one after another
        instead of one exponentially larger one.
        (The root cutting planes collapsed the MONOLITHIC trees too — 93
        nodes where there used to be tens of thousands — so the margin is
        structural, not exponential, on the smaller tier; the default floor
        reflects that.)

  * placement-service floors (only when --service-file is given):
      - every tier in BENCH_service_throughput.json must have resolved all
        submitted requests (all_resolved == true) and the bulk tier must
        have committed >= --min-service-containers containers — both
        hardware-independent completion checks;
      - the bulk tier's throughput must stay >= --min-service-throughput
        containers/s and its p99 end-to-end placement latency (from the
        service.place_latency_ms registry histogram) <= --max-service-p99-ms,
        but only when the producing machine had >= 4 hardware threads (the
        bench emits a {"kind": "env", "hardware_threads": N} record): a
        multi-threaded service cannot show its throughput on a 1- or 2-core
        container, and pretending otherwise would make the gate flaky
        instead of protective.

Usage:
  tools/check_bench.py [--file BENCH_solver_micro.json]
                       [--min-pivot-reduction 2.0]
                       [--max-warm-pivots 27916]
                       [--min-restart-reduction 3.0]
                       [--min-decompose-speedup 3.0]
                       [--service-file BENCH_service_throughput.json]
                       [--min-service-containers 1000000]
                       [--min-service-throughput 5000.0]
                       [--max-service-p99-ms 2000.0]
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file", default="BENCH_solver_micro.json")
    parser.add_argument(
        "--min-pivot-reduction",
        type=float,
        default=2.0,
        help="floor for the total warm-start pivot reduction (recorded: ~2.6x; "
        "cuts + pseudo-cost branching shrink the cold tree too, so the "
        "cold/warm ratio compressed — the absolute --max-warm-pivots "
        "ceiling below is the sharper gate)",
    )
    parser.add_argument(
        "--max-warm-pivots",
        type=int,
        default=27_916,
        help="ceiling for the total warm-path pivots across the cold/warm "
        "sweep (deterministic; 83,749 / 3 rounded — the >= 3x tightening "
        "floor over the pre-cut baseline; recorded: ~8.2k)",
    )
    parser.add_argument(
        "--min-restart-reduction",
        type=float,
        default=3.0,
        help="floor for the restart_total pivot reduction: cold solve of a "
        "one-bound-change child LP vs warm dual re-solve (recorded: ~17x)",
    )
    parser.add_argument(
        "--min-decompose-speedup",
        type=float,
        default=3.0,
        help="floor for the decomposed-vs-monolithic wall speedup on every "
        "decomposition tier (recorded: ~4.8x and ~12.5x with both sides "
        "serial; root cuts keep the monolithic trees small too; "
        "hardware-independent)",
    )
    parser.add_argument(
        "--service-file",
        default=None,
        help="BENCH_service_throughput.json to gate (skipped when omitted)",
    )
    parser.add_argument(
        "--min-service-containers",
        type=int,
        default=1_000_000,
        help="floor for committed containers in the bulk service tier "
        "(hardware-independent completion check)",
    )
    parser.add_argument(
        "--min-service-throughput",
        type=float,
        default=5000.0,
        help="floor for bulk-tier placement throughput in containers/s "
        "(recorded: ~70k/s unoptimized single-core; enforced only when the "
        "producing machine had >= 4 hardware threads)",
    )
    parser.add_argument(
        "--max-service-p99-ms",
        type=float,
        default=2000.0,
        help="ceiling for bulk-tier p99 end-to-end placement latency in ms "
        "(enforced only when the producing machine had >= 4 hardware threads)",
    )
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench: cannot read {args.file}: {err}")
        return 1

    failures = []

    # --- correctness: every configuration agreed on the certified objective.
    for record in records:
        if record.get("kind") in ("summary", "restart") and not record.get(
            "objectives_match", False
        ):
            failures.append(
                f"objectives mismatch in {record.get('kind')} record for model "
                f"{record.get('model')}"
            )
        if record.get("kind") == "restart" and not record.get("warm_path", False):
            failures.append(
                f"restart record for model {record.get('model')} fell back to a "
                f"cold solve (warm_path == false): the dual-simplex warm path "
                f"never engaged"
            )

    # --- warm-start floor.
    totals = [r for r in records if r.get("kind") == "total"]
    if not totals:
        failures.append("no 'total' record found (bench harness did not run?)")
    else:
        pivot_reduction = totals[-1].get("pivot_reduction", 0.0)
        print(f"check_bench: warm-start pivot reduction {pivot_reduction:.2f}x "
              f"(floor {args.min_pivot_reduction:.2f}x)")
        if pivot_reduction < args.min_pivot_reduction:
            failures.append(
                f"warm-start pivot reduction {pivot_reduction:.2f}x fell below "
                f"the {args.min_pivot_reduction:.2f}x floor"
            )
        warm_pivots = totals[-1].get("warm_pivots", 0)
        print(f"check_bench: total warm-path pivots {warm_pivots} "
              f"(ceiling {args.max_warm_pivots})")
        if warm_pivots > args.max_warm_pivots:
            failures.append(
                f"total warm-path pivots {warm_pivots} exceeded the "
                f"{args.max_warm_pivots} ceiling (>= 3x tightening over the "
                f"83,749-pivot pre-cut baseline)"
            )

    # --- dual-restart floor (hardware-independent: pivot counts are
    # deterministic).
    restart_totals = [r for r in records if r.get("kind") == "restart_total"]
    if not restart_totals:
        failures.append("no 'restart_total' record found (bench harness too old?)")
    else:
        restart_reduction = restart_totals[-1].get("pivot_reduction", 0.0)
        print(f"check_bench: bound-change restart reduction "
              f"{restart_reduction:.2f}x (floor {args.min_restart_reduction:.2f}x)")
        if restart_reduction < args.min_restart_reduction:
            failures.append(
                f"bound-change restart pivot reduction {restart_reduction:.2f}x "
                f"fell below the {args.min_restart_reduction:.2f}x floor"
            )

    # --- decomposition floor + component-count sanity (hardware-independent).
    decompose = [r for r in records if r.get("kind") == "decompose"]
    if not decompose:
        failures.append("no 'decompose' records found (bench harness too old?)")
    for record in decompose:
        model = record.get("model")
        if not record.get("objectives_match", False):
            failures.append(
                f"decomposed objective mismatch vs monolithic on model {model}"
            )
        if not record.get("components_ok", False):
            failures.append(
                f"component count {record.get('components')} != expected "
                f"{record.get('blocks')} blocks on model {model}"
            )
        speedup = record.get("speedup_vs_mono", 0.0)
        print(f"check_bench: decompose speedup on {model} {speedup:.2f}x "
              f"(floor {args.min_decompose_speedup:.2f}x, "
              f"components={record.get('components')})")
        if speedup < args.min_decompose_speedup:
            failures.append(
                f"decomposed speedup {speedup:.2f}x on model {model} fell below "
                f"the {args.min_decompose_speedup:.2f}x floor"
            )

    # --- placement-service floors (BENCH_service_throughput.json).
    if args.service_file:
        failures.extend(check_service(args))

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL: {failure}")
        return 1
    print("check_bench: OK")
    return 0


def check_service(args) -> list:
    """Gates the batched placement-service bench results."""
    failures = []
    try:
        with open(args.service_file, encoding="utf-8") as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return [f"cannot read {args.service_file}: {err}"]

    env = [r for r in records if r.get("kind") == "env"]
    hardware_threads = env[-1].get("hardware_threads", 0) if env else 0
    tiers = {r.get("tier"): r for r in records if r.get("kind") == "tier"}

    # Completion: every tier resolved every submitted request.
    for name, tier in tiers.items():
        if not tier.get("all_resolved", False):
            failures.append(f"service tier {name} timed out before resolving all requests")

    bulk = tiers.get("greedy-service")
    if bulk is None:
        failures.append("no greedy-service tier record (service bench did not run?)")
        return failures

    committed = bulk.get("containers_committed", 0)
    print(f"check_bench: service bulk tier committed {committed} containers "
          f"(floor {args.min_service_containers})")
    if committed < args.min_service_containers:
        failures.append(
            f"service bulk tier committed {committed} containers, below the "
            f"{args.min_service_containers} floor"
        )

    throughput = bulk.get("containers_per_s", 0.0)
    p99 = bulk.get("p99_ms", 0.0)
    if hardware_threads >= 4:
        print(f"check_bench: service throughput {throughput:.0f} containers/s "
              f"(floor {args.min_service_throughput:.0f}), p99 {p99:.1f} ms "
              f"(ceiling {args.max_service_p99_ms:.1f}, "
              f"hardware_threads={hardware_threads})")
        if throughput < args.min_service_throughput:
            failures.append(
                f"service throughput {throughput:.0f} containers/s fell below "
                f"the {args.min_service_throughput:.0f} floor"
            )
        if p99 > args.max_service_p99_ms:
            failures.append(
                f"service p99 placement latency {p99:.1f} ms exceeded the "
                f"{args.max_service_p99_ms:.1f} ms ceiling"
            )
    else:
        print(f"check_bench: skipping service throughput/p99 floors — producing "
              f"machine had only {hardware_threads} hardware thread(s); observed "
              f"{throughput:.0f} containers/s, p99 {p99:.1f} ms")
    return failures


if __name__ == "__main__":
    sys.exit(main())
