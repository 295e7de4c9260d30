// Copyright (c) Medea reproduction authors.
// Medea-ILP (§5.2): the optimization-based LRA scheduler. Builds the Fig. 5
// integer linear program over the batch of LRAs submitted in the latest
// scheduling interval and solves it with the in-repo branch-and-bound
// solver (the paper uses CPLEX).
//
// Formulation notes (symbols per Table 2 of the paper):
//  * Objective (Eq. 1):  w1/k * sum S_i  -  w2/m * sum v_c^l  +  w3/P * sum z_n.
//    The violation term enters negatively — the paper's prose minimizes
//    violations. Each violation variable carries its Eq. 8 normalization
//    (1/cmin or 1/cmax) and the owning constraint's soft weight.
//  * Eq. 2 (place each container at most once), Eq. 3 (node capacities, one
//    row per resource dimension), Eq. 4 (all-or-none per LRA) are emitted
//    verbatim over the pruned candidate pool.
//  * Eq. 5 fragmentation: z_n is relaxed to [0,1] continuous with tightest
//    big-B = r_min, yielding z_n = min(1, free_after/r_min): a smooth
//    version of the paper's indicator that avoids branching on pool-size
//    many extra binaries while exerting the same anti-fragmentation
//    pressure.
//  * Eqs. 6-8 are emitted per (constraint, subject, node set) with big-D
//    linking to the subject's placement, exactly as in the paper, with two
//    engineering refinements: rows with cmin = 0 (resp. cmax = inf) are
//    skipped, and self-cardinality constraints (subject tags == target
//    tags, cmin = 0) collapse to one aggregated row per node set, which is
//    equivalent and much smaller (DESIGN.md decision 3).
//  * Compound (DNF) constraints get one binary per clause per subject and a
//    "pick one clause" row (§5.2 "Compound constraints").
//  * Constraints of already-deployed LRAs whose targets match new container
//    tags contribute rows with the subject position fixed (§5.1 item ii).
//
// Degradation: the solve is warm-started from the Serial greedy plan. When
// it returns no solution at all (the time budget ran out before an
// incumbent was installed), Place() returns that greedy plan rather than an
// empty one, so a budget overrun costs plan quality, not the whole batch.

#ifndef SRC_SCHEDULERS_ILP_SCHEDULER_H_
#define SRC_SCHEDULERS_ILP_SCHEDULER_H_

#include <string>

#include "src/schedulers/placement.h"
#include "src/solver/mip.h"

namespace medea {

class MedeaIlpScheduler : public LraScheduler {
 public:
  explicit MedeaIlpScheduler(SchedulerConfig config) : config_(std::move(config)) {}

  PlacementPlan Place(const PlacementProblem& problem) override;

  std::string name() const override { return "Medea-ILP"; }

  // Statistics of the last Place() call, for tests and ablation benches.
  // `mip` carries the branch-and-bound counters, including the warm-started
  // incremental-simplex ones (warm_start_hits, cold_restarts, total_pivots,
  // lp_time_seconds — see docs/solver.md) that the Fig. 11 benches report.
  struct LastSolveStats {
    int variables = 0;
    int rows = 0;
    int binaries = 0;
    solver::MipStats mip;
    solver::SolveStatus status = solver::SolveStatus::kInfeasible;
    double objective = 0.0;
    // The solve returned no solution and Place() returned the Serial greedy
    // plan it was warm-started from instead.
    bool greedy_fallback = false;
  };
  const LastSolveStats& last_stats() const { return last_stats_; }

 private:
  SchedulerConfig config_;
  LastSolveStats last_stats_;
  int dump_counter_ = 0;  // names for ilp_dump_directory files
};

}  // namespace medea

#endif  // SRC_SCHEDULERS_ILP_SCHEDULER_H_
