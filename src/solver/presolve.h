// Copyright (c) Medea reproduction authors.
// MIP presolve: cheap model reductions applied before the simplex ever
// runs. Production solvers spend significant effort here; this pass covers
// the reductions that matter for Medea's placement models:
//
//  * singleton rows (one variable) become bounds and disappear;
//  * bounds of integer variables are rounded inward;
//  * rows that can never be violated given the variable bounds (redundant)
//    are dropped;
//  * rows whose bound activity proves infeasibility are detected up front;
//  * 0/1 bound probing: a binary whose trial value pushes a row's minimum
//    activity past its rhs is fixed the other way (to fixpoint);
//  * placement-aware clique rows: when any two of a capacity row's k largest
//    binary coefficients already exceed the rhs, the conflict row
//    sum(x in K) <= 1 is added, tightening the LP relaxation of the
//    per-node knapsacks that dominate Medea's placement models.
//
// The variable set is preserved (fixed variables are handled by the
// simplex's fixed-column elimination), so solutions of the presolved model
// are solutions of the original, index for index.

#ifndef SRC_SOLVER_PRESOLVE_H_
#define SRC_SOLVER_PRESOLVE_H_

#include "src/solver/model.h"

namespace medea::solver {

struct PresolveStats {
  int singleton_rows = 0;    // converted to bounds
  int redundant_rows = 0;    // dropped
  int bounds_tightened = 0;  // variable bounds strengthened
  // 0/1 bound probing (pass 3): binaries fixed because setting them the
  // other way makes some row's minimum activity exceed its rhs.
  int probed_fixings = 0;
  // Pairwise conflicts discovered while probing row prefixes: pairs of
  // binaries that can never both be 1 in the same row.
  long long probe_implications = 0;
  // Conflict rows sum(x in K) <= 1 materialized from those implications
  // (named "probe_clique" in the reduced model). Valid for every integer
  // point, so the MIP optimum is preserved; the LP relaxation tightens.
  int clique_rows_added = 0;
  bool proven_infeasible = false;

  // Adds another pass's reductions to these (proven_infeasible ORs).
  void Merge(const PresolveStats& other);
};

// Returns a reduced copy of `model` with the same variables. When
// `stats->proven_infeasible` is set, the returned model contains a trivially
// infeasible row so that downstream solvers report infeasibility.
Model Presolved(const Model& model, PresolveStats* stats = nullptr);

}  // namespace medea::solver

#endif  // SRC_SOLVER_PRESOLVE_H_
