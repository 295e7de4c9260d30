#include "src/solver/presolve.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/result.h"

namespace medea::solver {
namespace {

struct Bounds {
  double lower;
  double upper;
};

// Minimum and maximum possible activity of a row under the given bounds.
std::pair<double, double> ActivityRange(const Model::Row& row,
                                        const std::vector<Bounds>& bounds) {
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& [var, coeff] : row.terms) {
    const Bounds& b = bounds[static_cast<size_t>(var)];
    if (coeff >= 0) {
      lo += coeff * b.lower;
      hi += coeff * b.upper;
    } else {
      lo += coeff * b.upper;
      hi += coeff * b.lower;
    }
  }
  return {lo, hi};
}

// Minimum activity of `row`, scaled by +-1 (the -1 view turns a
// kGreaterEqual row into <= form). Infinite bounds propagate as -inf, which
// keeps every probing comparison safely false.
double MinActivity(const Model::Row& row, double scale, const std::vector<Bounds>& bounds) {
  double lo = 0.0;
  for (const auto& [var, raw] : row.terms) {
    const double coeff = scale * raw;
    if (coeff == 0.0) {
      continue;
    }
    const Bounds& b = bounds[static_cast<size_t>(var)];
    lo += coeff >= 0 ? coeff * b.lower : coeff * b.upper;
  }
  return lo;
}

}  // namespace

void PresolveStats::Merge(const PresolveStats& other) {
  singleton_rows += other.singleton_rows;
  redundant_rows += other.redundant_rows;
  bounds_tightened += other.bounds_tightened;
  probed_fixings += other.probed_fixings;
  probe_implications += other.probe_implications;
  clique_rows_added += other.clique_rows_added;
  proven_infeasible = proven_infeasible || other.proven_infeasible;
}

Model Presolved(const Model& model, PresolveStats* stats) {
  PresolveStats local;
  PresolveStats& out = stats != nullptr ? *stats : local;
  out = PresolveStats{};

  // Working copies of the bounds.
  std::vector<Bounds> bounds;
  bounds.reserve(static_cast<size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    bounds.push_back(Bounds{model.column(j).lower, model.column(j).upper});
  }

  const auto tighten = [&](int var, double lower, double upper) {
    Bounds& b = bounds[static_cast<size_t>(var)];
    if (model.column(var).type != VarType::kContinuous) {
      // Integral variables: round inward.
      if (std::isfinite(lower)) {
        lower = std::ceil(lower - 1e-9);
      }
      if (std::isfinite(upper)) {
        upper = std::floor(upper + 1e-9);
      }
    }
    bool changed = false;
    if (lower > b.lower + 1e-12) {
      b.lower = lower;
      changed = true;
    }
    if (upper < b.upper - 1e-12) {
      b.upper = upper;
      changed = true;
    }
    if (changed) {
      ++out.bounds_tightened;
    }
    if (b.lower > b.upper + 1e-9) {
      out.proven_infeasible = true;
    }
  };

  // Pass 1: singleton rows become bounds.
  std::vector<bool> drop(static_cast<size_t>(model.num_rows()), false);
  for (int r = 0; r < model.num_rows(); ++r) {
    const auto& row = model.row(r);
    if (row.terms.size() != 1) {
      continue;
    }
    const auto [var, coeff] = row.terms[0];
    MEDEA_CHECK(coeff != 0.0);
    const double value = row.rhs / coeff;
    switch (row.sense) {
      case RowSense::kLessEqual:
        if (coeff > 0) {
          tighten(var, -kInfinity, value);
        } else {
          tighten(var, value, kInfinity);
        }
        break;
      case RowSense::kGreaterEqual:
        if (coeff > 0) {
          tighten(var, value, kInfinity);
        } else {
          tighten(var, -kInfinity, value);
        }
        break;
      case RowSense::kEqual:
        tighten(var, value, value);
        break;
    }
    drop[static_cast<size_t>(r)] = true;
    ++out.singleton_rows;
  }

  // Pass 2: redundancy / infeasibility from activity bounds.
  for (int r = 0; r < model.num_rows(); ++r) {
    if (drop[static_cast<size_t>(r)]) {
      continue;
    }
    const auto& row = model.row(r);
    if (row.terms.empty()) {
      // Constant row: redundant or infeasible outright.
      const bool ok = row.sense == RowSense::kLessEqual      ? 0.0 <= row.rhs + 1e-9
                      : row.sense == RowSense::kGreaterEqual ? 0.0 >= row.rhs - 1e-9
                                                             : std::fabs(row.rhs) <= 1e-9;
      if (ok) {
        drop[static_cast<size_t>(r)] = true;
        ++out.redundant_rows;
      } else {
        out.proven_infeasible = true;
      }
      continue;
    }
    const auto [lo, hi] = ActivityRange(row, bounds);
    switch (row.sense) {
      case RowSense::kLessEqual:
        if (hi <= row.rhs + 1e-9) {
          drop[static_cast<size_t>(r)] = true;
          ++out.redundant_rows;
        } else if (lo > row.rhs + 1e-9) {
          out.proven_infeasible = true;
        }
        break;
      case RowSense::kGreaterEqual:
        if (lo >= row.rhs - 1e-9) {
          drop[static_cast<size_t>(r)] = true;
          ++out.redundant_rows;
        } else if (hi < row.rhs - 1e-9) {
          out.proven_infeasible = true;
        }
        break;
      case RowSense::kEqual:
        if (lo > row.rhs + 1e-9 || hi < row.rhs - 1e-9) {
          out.proven_infeasible = true;
        }
        break;
    }
  }

  // Pass 3: 0/1 bound probing, to fixpoint (capped). For every row in <=
  // form and every free binary in it: trial-setting the binary to the value
  // that RAISES the row's minimum activity past the rhs proves it must take
  // the other value. Each round can enable further fixings (the fixed
  // binary tightens other rows' activity ranges), hence the loop.
  const auto is_free_binary = [&](int var) {
    const Bounds& b = bounds[static_cast<size_t>(var)];
    return model.column(var).type != VarType::kContinuous && b.lower == 0.0 && b.upper == 1.0;
  };
  constexpr int kProbeRounds = 4;
  for (int round = 0; round < kProbeRounds && !out.proven_infeasible; ++round) {
    bool any_fixed = false;
    for (int r = 0; r < model.num_rows() && !out.proven_infeasible; ++r) {
      if (drop[static_cast<size_t>(r)]) {
        continue;
      }
      const auto& row = model.row(r);
      for (const double scale : {1.0, -1.0}) {
        if ((scale > 0 && row.sense == RowSense::kGreaterEqual) ||
            (scale < 0 && row.sense == RowSense::kLessEqual)) {
          continue;
        }
        const double rhs = scale * row.rhs;
        const double minlo = MinActivity(row, scale, bounds);
        if (!std::isfinite(minlo)) {
          continue;
        }
        for (const auto& [var, raw] : row.terms) {
          const double coeff = scale * raw;
          if (coeff == 0.0 || !is_free_binary(var)) {
            continue;
          }
          if (coeff > 0 && minlo + coeff > rhs + 1e-9) {
            // x = 1 would violate the row on its own: fix to 0.
            tighten(var, -kInfinity, 0.0);
            ++out.probed_fixings;
            any_fixed = true;
          } else if (coeff < 0 && minlo - coeff > rhs + 1e-9) {
            // x = 0 forfeits the only relief this row has: fix to 1.
            tighten(var, 1.0, kInfinity);
            ++out.probed_fixings;
            any_fixed = true;
          }
        }
      }
    }
    if (!any_fixed) {
      break;
    }
  }

  // Pass 4: clique rows from pairwise conflicts. In a <=-form row, sort the
  // free binaries' positive coefficients descending; the longest prefix in
  // which any TWO members (plus the other terms' minimum activity) exceed
  // the rhs admits at most one 1 — materialized as sum(x in K) <= 1 unless
  // an identical all-ones row already says so (e.g. the one-node-per-
  // container assignment rows).
  std::vector<std::vector<std::pair<VarIndex, double>>> clique_rows;
  if (!out.proven_infeasible) {
    // Supports already emitted this pass (two capacity rows over the same
    // variables would otherwise produce the same clique twice).
    std::vector<std::vector<VarIndex>> emitted;
    // Existing all-ones rows that already dominate a candidate clique.
    std::vector<std::vector<VarIndex>> one_rows;
    for (int r = 0; r < model.num_rows(); ++r) {
      const auto& row = model.row(r);
      if (row.sense == RowSense::kGreaterEqual || row.rhs > 1.0 + 1e-9) {
        continue;
      }
      if (std::all_of(row.terms.begin(), row.terms.end(),
                      [](const std::pair<VarIndex, double>& t) { return t.second == 1.0; })) {
        std::vector<VarIndex> support;
        support.reserve(row.terms.size());
        for (const auto& [var, coeff] : row.terms) {
          support.push_back(var);
        }
        one_rows.push_back(std::move(support));
      }
    }
    for (int r = 0; r < model.num_rows(); ++r) {
      if (drop[static_cast<size_t>(r)]) {
        continue;
      }
      const auto& row = model.row(r);
      for (const double scale : {1.0, -1.0}) {
        if ((scale > 0 && row.sense == RowSense::kGreaterEqual) ||
            (scale < 0 && row.sense == RowSense::kLessEqual)) {
          continue;
        }
        double rhs_left = scale * row.rhs;
        std::vector<std::pair<VarIndex, double>> eligible;
        bool usable = true;
        for (const auto& [var, raw] : row.terms) {
          const double coeff = scale * raw;
          if (coeff > 1e-9 && is_free_binary(var)) {
            eligible.emplace_back(var, coeff);
            continue;
          }
          const Bounds& b = bounds[static_cast<size_t>(var)];
          const double mn = coeff >= 0 ? coeff * b.lower : coeff * b.upper;
          if (!std::isfinite(mn)) {
            usable = false;
            break;
          }
          rhs_left -= mn;
        }
        if (!usable || eligible.size() < 2) {
          continue;
        }
        std::sort(eligible.begin(), eligible.end(),
                  [](const std::pair<VarIndex, double>& lhs,
                     const std::pair<VarIndex, double>& rhs) {
                    if (lhs.second != rhs.second) {
                      return lhs.second > rhs.second;
                    }
                    return lhs.first < rhs.first;
                  });
        size_t k = 0;
        while (true) {
          const size_t next = k < 2 ? 2 : k + 1;
          if (next > eligible.size() ||
              eligible[next - 2].second + eligible[next - 1].second <= rhs_left + 1e-9) {
            break;
          }
          k = next;
        }
        if (k < 2) {
          continue;
        }
        out.probe_implications += static_cast<long long>(k) * static_cast<long long>(k - 1) / 2;
        std::vector<VarIndex> support;
        support.reserve(k);
        for (size_t i = 0; i < k; ++i) {
          support.push_back(eligible[i].first);
        }
        std::sort(support.begin(), support.end());
        const bool dominated = std::any_of(
            one_rows.begin(), one_rows.end(), [&support](const std::vector<VarIndex>& one) {
              return std::includes(one.begin(), one.end(), support.begin(), support.end());
            });
        if (dominated ||
            std::find(emitted.begin(), emitted.end(), support) != emitted.end()) {
          continue;
        }
        emitted.push_back(support);
        std::vector<std::pair<VarIndex, double>> terms;
        terms.reserve(k);
        for (const VarIndex var : support) {
          terms.emplace_back(var, 1.0);
        }
        clique_rows.push_back(std::move(terms));
        ++out.clique_rows_added;
      }
    }
  }

  // Rebuild: same variables (with tightened bounds), surviving rows.
  Model reduced;
  reduced.SetMaximize(model.maximize());
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto& col = model.column(j);
    const Bounds& b = bounds[static_cast<size_t>(j)];
    const double lower = out.proven_infeasible ? col.lower : b.lower;
    const double upper = out.proven_infeasible ? col.upper : std::max(b.upper, lower);
    reduced.AddVariable(lower, upper, col.objective, col.type, col.name);
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    if (drop[static_cast<size_t>(r)] && !out.proven_infeasible) {
      continue;
    }
    const auto& row = model.row(r);
    reduced.AddRow(row.terms, row.sense, row.rhs, row.name);
  }
  if (!out.proven_infeasible) {
    for (const auto& terms : clique_rows) {
      reduced.AddRow(terms, RowSense::kLessEqual, 1.0, "probe_clique");
    }
  }
  if (out.proven_infeasible) {
    // Make the infeasibility explicit for downstream solvers.
    reduced.AddRow({}, RowSense::kGreaterEqual, 1.0, "presolve_infeasible");
  }
  return reduced;
}

}  // namespace medea::solver
