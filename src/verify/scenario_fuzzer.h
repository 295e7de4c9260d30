// Copyright (c) Medea reproduction authors.
// Seeded differential scenario fuzzer over the full scheduling stack.
//
// Each seed deterministically generates a random cluster (topology, node
// capacities, static tags), a random mix of already-deployed LRAs and a
// fresh submission batch drawn from the §7.1 workload templates, then runs
// all four scheduler families — Medea-ILP, the greedy heuristics, YARN and
// J-Kube — on the identical problem and asserts per-seed invariants:
//
//   * every plan passes the InvariantChecker (and commits cleanly onto a
//     scratch state that passes again post-commit);
//   * deterministic replay: a freshly constructed scheduler produces a
//     bit-identical placement for the same problem and seed;
//   * optimality dominance: on instances the ILP solves to proven
//     optimality, its recomputed Eq. 1 objective is no worse than the Serial
//     greedy's (the warm start makes the greedy plan an ILP incumbent);
//   * MIP self-certification: random MIP models solve to certified
//     solutions, with presolve on/off agreeing on the optimum;
//   * decomposition differential: random block-diagonal MIP models solved
//     through the component-decomposed path (relax-and-round fast lane
//     forced on) certify and match the monolithic exact optimum;
//   * cutting-plane differential: with exact gaps, the search with root
//     cover/clique cuts (and pseudo-cost branching) reaches the same status
//     and objective as the cut-free most-fractional search, and the
//     strengthened incumbent still certifies against the original model;
//   * LP engine differential: the warm-startable incremental dual-simplex
//     engine and the cold dense solver agree on status and objective through
//     a random sequence of branching-style bound changes;
//   * service differential: the same request stream driven through the
//     snapshot-batched PlacementService (epoch snapshots, COW state,
//     revalidating commits) and through a legacy mutex-sequential loop
//     (direct Place + CommitPlan on the live state, same batching and
//     requeue policy) yields bit-identical plans, identical committed
//     placements, equal Eq. 1 objectives and identical final states;
//   * a full Simulation pass (node failures, task churn, migration) with the
//     audit hook installed stays invariant-clean;
//   * pipeline fault injection: the LRA pipeline core, driven cycle by
//     cycle, survives a node lost between plan and commit (revalidation
//     demotes every LRA planned onto it) and an expired ILP budget (the plan
//     is the Serial greedy's), passes the InvariantChecker after every
//     commit, and conserves requests: submitted == placed + rejected + still
//     pending.
//
// Every failure carries its seed, so `fuzz_schedulers --seeds 1 --base-seed
// <seed>` reproduces it exactly.

#ifndef SRC_VERIFY_SCENARIO_FUZZER_H_
#define SRC_VERIFY_SCENARIO_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/verify/invariant_checker.h"

namespace medea::verify {

struct FuzzOptions {
  int num_seeds = 100;
  uint64_t base_seed = 1;
  // Run the event-driven Simulation leg (node failures, migration, task
  // churn) with the audit hook installed.
  bool run_simulation = true;
  // Re-run each scheduler from scratch and require bit-identical plans.
  bool check_replay = true;
  // Require ILP objective >= Serial greedy objective on proven-optimal
  // instances (both recomputed by InvariantChecker::PlanObjective).
  bool check_dominance = true;
  // Solve random MIP models and certify incumbents + presolve agreement.
  bool check_mip = true;
  // Solve random block-diagonal MIP models through the component-decomposed
  // path (with the relax-and-round fast lane forced on) and require the
  // stitched result to certify and agree with the monolithic exact optimum.
  bool check_decompose = true;
  // Solve random MIP models with cuts + pseudo-cost branching on vs fully
  // off at exact gaps and require identical status and objective (cut
  // soundness: no integer-feasible point may be cut off).
  bool check_cuts = true;
  // Run the incremental dual-simplex LP engine against the cold dense
  // solver through a random bound-change sequence and require agreement.
  bool check_lp_differential = true;
  // Drive the same request stream through the snapshot-batched
  // PlacementService and through a legacy mutex-sequential commit loop, and
  // require identical committed placements, Eq. 1 objectives and final
  // states (the `--no-batch` CLI flag turns this leg off).
  bool check_batch = true;
  // Stop after this many failures (0 = collect all).
  int max_failures = 10;
  // Per-cycle ILP budget. Most generated instances solve to optimality in
  // milliseconds; the occasional hard instance is cut off here (and then
  // skips the dominance and replay checks, which are only sound for solves
  // the wall clock did not truncate).
  double ilp_time_limit_seconds = 2.0;
  bool verbose = false;
};

struct FuzzFailure {
  uint64_t seed = 0;
  std::string scheduler;   // or "mip" / "simulation"
  std::string invariant;   // which invariant tripped
  std::string detail;

  std::string ToString() const;
};

struct FuzzStats {
  int seeds_run = 0;
  int plans_checked = 0;
  int commits_checked = 0;
  int replays_checked = 0;
  int dominance_checked = 0;
  int ilp_optimal = 0;
  int mip_models = 0;
  int decompose_models = 0;
  int cut_models = 0;          // cuts-on/off differential models
  int lp_models = 0;           // dual-vs-dense LP differential models
  int lp_solves_compared = 0;  // lockstep LP solves across the two engines
  int simulations = 0;
  int service_runs = 0;     // service-vs-sequential differential seeds
  int service_batches = 0;  // batches compared across the two legs
  int pipeline_runs = 0;     // pipeline fault-injection seeds
  int pipeline_commits = 0;  // commits audited in that leg
  int ilp_fallbacks = 0;     // expired-budget plans checked against the greedy
};

struct FuzzResult {
  FuzzStats stats;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Runs the fuzzer. Deterministic: identical options produce identical
// results.
FuzzResult FuzzSchedulers(const FuzzOptions& options = {});

}  // namespace medea::verify

#endif  // SRC_VERIFY_SCENARIO_FUZZER_H_
