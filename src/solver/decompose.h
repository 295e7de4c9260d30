// Copyright (c) Medea reproduction authors.
// Component decomposition for MIP solves.
//
// A placement ILP's constraint graph — apps × candidate nodes × tag and
// cardinality constraints — routinely splits into independent connected
// components (disjoint rack/tag neighborhoods share no rows). Branch and
// bound is exponential in the component size, so solving k small components
// independently is exponentially cheaper than attacking the stitched model
// monolithically.
//
// This header exposes the decomposition itself (union-find over the
// variable-row incidence graph) and the component sub-model extraction, so
// tests can pin down membership and index mapping; the full decomposed
// solve — in-order component sub-solves, the relax-and-round fast lane, and
// solution stitching — lives behind internal::SolveMipDecomposed and is
// dispatched from SolveMip via MipOptions::decompose.

#ifndef SRC_SOLVER_DECOMPOSE_H_
#define SRC_SOLVER_DECOMPOSE_H_

#include <string>
#include <vector>

#include "src/solver/mip.h"
#include "src/solver/model.h"

namespace medea::solver {

// One connected component of the variable-row incidence graph. Variables
// fixed by their bounds (lower == upper) are constants, not graph nodes:
// they join no component and do not glue rows together (a fixed variable
// shared by two otherwise-independent rows leaves them independent).
struct Component {
  std::vector<VarIndex> vars;  // global variable indices, ascending
  std::vector<RowIndex> rows;  // global row indices, ascending
  int num_integer = 0;         // non-fixed integer variables among `vars`
};

struct Decomposition {
  // Components ordered by descending num_integer (largest search first, so
  // it gets the most of the wall-clock budget), row-less bound-only
  // components last.
  std::vector<Component> components;
  // Global variable index -> index into `components`; -1 for fixed
  // variables (handled by the stitcher, not by any component).
  std::vector<int> component_of_var;
  // Rows whose every term is fixed (or that have no terms): they belong to
  // no component and are checked directly against the fixed values.
  std::vector<RowIndex> constant_rows;
};

// Extracts the connected components of `model`'s variable-row incidence
// graph with a union-find pass over the row terms. O(nnz * alpha).
Decomposition DecomposeModel(const Model& model);

// Builds the standalone sub-model of one component: the component's
// variables (in `comp.vars` order) with their bounds/objective/type, and
// the component's rows with fixed variables substituted into the
// right-hand sides. Solutions map back index-for-index through `comp.vars`.
Model ExtractComponent(const Model& model, const Component& comp);

// Solver-side certifier for a candidate incumbent: primal feasibility of
// every row and bound plus integrality of every integer variable. The
// relax-and-round fast lane uses it as its acceptance gate (a rejected
// candidate demotes the component to exact branch and bound), and
// MipOptions::certify aborts when it rejects a returned incumbent. On
// rejection, `violation` (when non-null) names the first failed check.
bool CheckIncumbent(const Model& model, const std::vector<double>& values,
                    double feasibility_tol, double integrality_tol,
                    std::string* violation = nullptr);

namespace internal {

// Decomposed MIP solve (see file comment). Preconditions, enforced by the
// dispatcher in mip.cc: options.decompose is set and the model reached this
// point un-presolved or already presolved per options.presolve.
Solution SolveMipDecomposed(const Model& model, const MipOptions& options, MipStats* stats);

}  // namespace internal

}  // namespace medea::solver

#endif  // SRC_SOLVER_DECOMPOSE_H_
