#include "src/solver/cuts.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/solver/incremental_lp.h"
#include "src/solver/simplex.h"

namespace medea::solver::internal {
namespace {

// Tolerance for "coefficients exceed the rhs" tests during separation. Kept
// small and absolute: placement coefficients are O(1..10).
constexpr double kCutTol = 1e-9;

// Root cut loop limits: separation rounds (each: separate, add, dual
// re-solve) and cuts accepted per round, most violated first.
constexpr int kMaxCutRounds = 8;
constexpr int kMaxCutsPerRound = 32;
// Slack-based aging: a cut whose slack exceeds kCutSlackTol for kMaxCutAge
// consecutive re-solves is retired from the pool (never enters the final
// branching model).
constexpr double kCutSlackTol = 1e-7;
constexpr int kMaxCutAge = 2;

bool IsBinary(const Model& model, VarIndex j) {
  const auto& col = model.column(j);
  return col.type != VarType::kContinuous && col.lower == 0.0 && col.upper == 1.0;
}

// One row of `model` rewritten in the sense sum(a_j x_j) <= rhs. kEqual rows
// produce both directions; kGreaterEqual rows are negated.
struct LeRow {
  const std::vector<std::pair<VarIndex, double>>* terms = nullptr;
  double scale = 1.0;  // +1 as stored, -1 negated
  double rhs = 0.0;
  RowIndex source = -1;
};

std::vector<LeRow> LeViews(const Model& model, int original_rows) {
  std::vector<LeRow> views;
  views.reserve(static_cast<size_t>(original_rows));
  for (RowIndex r = 0; r < original_rows; ++r) {
    const auto& row = model.row(r);
    if (row.sense != RowSense::kGreaterEqual) {
      views.push_back({&row.terms, 1.0, row.rhs, r});
    }
    if (row.sense != RowSense::kLessEqual) {
      views.push_back({&row.terms, -1.0, -row.rhs, r});
    }
  }
  return views;
}

// Splits a <=-form row into eligible binary terms (positive coefficient,
// 0/1 bounds) and the rhs left over after the OTHER terms take their minimum
// activity. Returns false when an ineligible term has no finite minimum (no
// valid single-row relaxation exists).
bool SplitRow(const Model& model, const LeRow& view,
              std::vector<std::pair<VarIndex, double>>& eligible, double& rhs_left) {
  eligible.clear();
  rhs_left = view.rhs;
  for (const auto& [var, raw] : *view.terms) {
    const double a = view.scale * raw;
    if (a > kCutTol && IsBinary(model, var)) {
      eligible.emplace_back(var, a);
      continue;
    }
    const auto& col = model.column(var);
    const double mn = a >= 0.0 ? a * col.lower : a * col.upper;
    if (!std::isfinite(mn)) {
      return false;
    }
    rhs_left -= mn;
  }
  return eligible.size() >= 2;
}

}  // namespace

std::vector<Cut> SeparateCoverCuts(const Model& model, int original_rows,
                                   const std::vector<double>& x, double min_violation) {
  std::vector<Cut> cuts;
  std::vector<std::pair<VarIndex, double>> eligible;
  for (const LeRow& view : LeViews(model, original_rows)) {
    double rhs_left = 0.0;
    if (!SplitRow(model, view, eligible, rhs_left)) {
      continue;
    }
    double total = 0.0;
    for (const auto& [var, a] : eligible) {
      total += a;
    }
    if (total <= rhs_left + kCutTol) {
      continue;  // no cover exists: the row cannot be violated by binaries
    }
    // Greedy cover: take items by ascending (1 - x*)/a — high LP value and
    // high coefficient first — until the coefficients exceed the rhs.
    std::vector<std::pair<VarIndex, double>> order = eligible;
    std::sort(order.begin(), order.end(),
              [&x](const std::pair<VarIndex, double>& lhs, const std::pair<VarIndex, double>& rhs) {
                const double kl = (1.0 - x[static_cast<size_t>(lhs.first)]) / lhs.second;
                const double kr = (1.0 - x[static_cast<size_t>(rhs.first)]) / rhs.second;
                if (kl != kr) {
                  return kl < kr;
                }
                return lhs.first < rhs.first;
              });
    std::vector<std::pair<VarIndex, double>> cover;
    double sum = 0.0;
    for (const auto& item : order) {
      cover.push_back(item);
      sum += item.second;
      if (sum > rhs_left + kCutTol) {
        break;
      }
    }
    if (sum <= rhs_left + kCutTol) {
      continue;
    }
    // Minimalize: drop members (last added first) that the cover can spare.
    for (size_t i = cover.size(); i-- > 0;) {
      if (sum - cover[i].second > rhs_left + kCutTol) {
        sum -= cover[i].second;
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (cover.size() < 2) {
      continue;
    }
    double amax = 0.0;
    for (const auto& [var, a] : cover) {
      amax = std::max(amax, a);
    }
    // Extend with every eligible variable whose coefficient dominates the
    // cover's largest: swapping it for any cover member keeps the sum over
    // the rhs, so it joins the cut at no loss of validity.
    Cut cut;
    cut.source_row = view.source;
    cut.family = "cover";
    cut.rhs = static_cast<double>(cover.size()) - 1.0;
    for (const auto& [var, a] : cover) {
      cut.terms.emplace_back(var, 1.0);
    }
    for (const auto& [var, a] : eligible) {
      if (a >= amax - kCutTol &&
          std::none_of(cover.begin(), cover.end(),
                       [var](const std::pair<VarIndex, double>& c) { return c.first == var; })) {
        cut.terms.emplace_back(var, 1.0);
      }
    }
    std::sort(cut.terms.begin(), cut.terms.end());
    double lhs_value = 0.0;
    for (const auto& [var, coeff] : cut.terms) {
      lhs_value += coeff * x[static_cast<size_t>(var)];
    }
    cut.violation = lhs_value - cut.rhs;
    if (cut.violation >= min_violation) {
      cuts.push_back(std::move(cut));
    }
  }
  return cuts;
}

std::vector<Cut> SeparateCliqueCuts(const Model& model, int original_rows,
                                    const std::vector<double>& x, double min_violation) {
  std::vector<Cut> cuts;
  std::vector<std::pair<VarIndex, double>> eligible;
  for (const LeRow& view : LeViews(model, original_rows)) {
    double rhs_left = 0.0;
    if (!SplitRow(model, view, eligible, rhs_left)) {
      continue;
    }
    // Largest-coefficients-first; ties by index so every configuration
    // builds the same prefix.
    std::sort(eligible.begin(), eligible.end(),
              [](const std::pair<VarIndex, double>& lhs, const std::pair<VarIndex, double>& rhs) {
                if (lhs.second != rhs.second) {
                  return lhs.second > rhs.second;
                }
                return lhs.first < rhs.first;
              });
    // Longest prefix in which ANY two members exceed the rhs (the two
    // smallest are the prefix tail, and the test is monotone in k).
    size_t k = 0;
    while (k + 1 < eligible.size() || k < 2) {
      const size_t next = k < 2 ? 2 : k + 1;
      if (next > eligible.size()) {
        break;
      }
      if (eligible[next - 2].second + eligible[next - 1].second <= rhs_left + kCutTol) {
        break;
      }
      k = next;
    }
    if (k < 2) {
      continue;
    }
    Cut cut;
    cut.source_row = view.source;
    cut.family = "clique";
    cut.rhs = 1.0;
    for (size_t i = 0; i < k; ++i) {
      cut.terms.emplace_back(eligible[i].first, 1.0);
    }
    std::sort(cut.terms.begin(), cut.terms.end());
    double lhs_value = 0.0;
    for (const auto& [var, coeff] : cut.terms) {
      lhs_value += coeff * x[static_cast<size_t>(var)];
    }
    cut.violation = lhs_value - cut.rhs;
    if (cut.violation >= min_violation) {
      cuts.push_back(std::move(cut));
    }
  }
  return cuts;
}

void AddRootCuts(Model& model, const MipOptions& options, MipStats* stats,
                 const SearchBudget& budget) {
  if (!options.cuts.enable || model.num_integer_variables() == 0 || model.num_rows() == 0) {
    return;
  }
  const int original_rows = model.num_rows();

  // The loop engine: every accepted cut enters through the basis-preserving
  // AddRow and the dual simplex repairs it on the next warm Solve(). Used
  // unconditionally (independent of use_incremental_lp) so every solver
  // configuration derives the identical cut set.
  IncrementalLpSolver engine(model);

  struct PoolEntry {
    Cut cut;
    int age = 0;
    bool active = true;
  };
  std::vector<PoolEntry> pool;
  // Dedup key: the cut's support plus its (integral) rhs.
  std::set<std::vector<int>> seen;
  const auto key_of = [](const Cut& cut) {
    std::vector<int> key;
    key.reserve(cut.terms.size() + 1);
    for (const auto& [var, coeff] : cut.terms) {
      key.push_back(var);
    }
    key.push_back(static_cast<int>(std::lround(cut.rhs)));
    return key;
  };

  for (int round = 0; round < kMaxCutRounds; ++round) {
    if (budget.TimeUp()) {
      break;  // the cuts found so far stay valid
    }
    const auto start = Clock::now();
    const Solution sol = engine.Solve(budget.NodeLpOptions(options.lp));
    const auto& info = engine.last_info();
    CountLp(stats, info.dual_pivots, info.primal_pivots, start);
    stats->cut_pivots += info.pivots;
    if (sol.status != SolveStatus::kOptimal) {
      break;  // infeasible/limited root: branch and bound deals with it
    }
    const std::vector<double>& x = sol.values;

    // Slack-based aging: a cut that stayed slack for kMaxCutAge consecutive
    // re-solves is retired from the pool. (Its row stays in the loop engine,
    // where a slack row costs nothing; it simply never reaches the model the
    // search branches on.)
    for (PoolEntry& entry : pool) {
      if (!entry.active) {
        continue;
      }
      double activity = 0.0;
      for (const auto& [var, coeff] : entry.cut.terms) {
        activity += coeff * x[static_cast<size_t>(var)];
      }
      if (entry.cut.rhs - activity > kCutSlackTol) {
        if (++entry.age >= kMaxCutAge) {
          entry.active = false;
          ++stats->cuts_aged_out;
        }
      } else {
        entry.age = 0;
      }
    }

    std::vector<Cut> candidates = SeparateCoverCuts(model, original_rows, x, kMinCutViolation);
    std::vector<Cut> cliques = SeparateCliqueCuts(model, original_rows, x, kMinCutViolation);
    candidates.insert(candidates.end(), std::make_move_iterator(cliques.begin()),
                      std::make_move_iterator(cliques.end()));
    // Most violated first; fully deterministic tie-break on the support.
    std::sort(candidates.begin(), candidates.end(), [](const Cut& lhs, const Cut& rhs) {
      if (lhs.violation != rhs.violation) {
        return lhs.violation > rhs.violation;
      }
      if (lhs.rhs != rhs.rhs) {
        return lhs.rhs < rhs.rhs;
      }
      return lhs.terms < rhs.terms;
    });
    int added = 0;
    for (Cut& cut : candidates) {
      if (added >= kMaxCutsPerRound) {
        break;
      }
      if (!seen.insert(key_of(cut)).second) {
        continue;
      }
      engine.AddRow(cut.terms, RowSense::kLessEqual, cut.rhs);
      pool.push_back({std::move(cut), 0, true});
      ++added;
    }
    if (added == 0) {
      break;
    }
    ++stats->cut_rounds;
  }

  stats->cuts_generated += static_cast<int>(pool.size());
  for (const PoolEntry& entry : pool) {
    if (entry.active) {
      ++stats->cuts_active;
      model.AddRow(entry.cut.terms, RowSense::kLessEqual, entry.cut.rhs, entry.cut.family);
    }
  }
}

void InitPseudoCostsAtRoot(const Model& model, const MipOptions& options, PseudoCosts* pc,
                           MipStats* stats, const SearchBudget& budget) {
  pc->Resize(model.num_variables());
  if (options.branching != BranchingRule::kPseudoCost || model.num_integer_variables() == 0) {
    return;
  }
  const auto strong_branch_lp = [&](const Model& m) {
    ++stats->strong_branch_solves;
    return CountedSolveLp(m, budget.NodeLpOptions(options.lp), stats);
  };
  const Solution root = strong_branch_lp(model);
  if (root.status != SolveStatus::kOptimal) {
    return;
  }
  const double sign = model.maximize() ? 1.0 : -1.0;
  const double root_score = sign * root.objective;

  struct Candidate {
    int var = 0;
    double fractionality = 0.0;  // distance to the nearest integer
    double value = 0.0;
  };
  std::vector<Candidate> candidates;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = root.values[static_cast<size_t>(j)];
    const double frac = v - std::floor(v);
    if (frac <= options.integrality_tol || frac >= 1.0 - options.integrality_tol) {
      continue;
    }
    candidates.push_back({j, std::min(frac, 1.0 - frac), v});
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& lhs, const Candidate& rhs) {
    if (lhs.fractionality != rhs.fractionality) {
      return lhs.fractionality > rhs.fractionality;
    }
    return lhs.var < rhs.var;
  });
  if (static_cast<int>(candidates.size()) > kStrongBranchCandidates) {
    candidates.resize(static_cast<size_t>(kStrongBranchCandidates));
  }

  // An infeasible child is maximally informative: score it as a huge
  // deterministic degradation so the variable looks expensive to branch
  // away from.
  const double infeasible_gain = 1e6 * (1.0 + std::fabs(root_score));
  Model child = model;
  for (const Candidate& cand : candidates) {
    if (budget.TimeUp()) {
      break;  // the tables keep what was observed so far
    }
    const auto& col = model.column(cand.var);
    const double floor_v = std::floor(cand.value);
    const double ceil_v = std::ceil(cand.value);
    for (const bool up : {false, true}) {
      const double frac_dist = up ? ceil_v - cand.value : cand.value - floor_v;
      // A fractional original bound can make the rounded child bound cross
      // the other one (e.g. upper 3.7, value 3.5, ceil 4): that child is
      // infeasible by bounds alone, so record it without an LP solve.
      if (up ? ceil_v > col.upper + 1e-12 : floor_v < col.lower - 1e-12) {
        pc->Update(cand.var, up, infeasible_gain);
        continue;
      }
      if (up) {
        child.SetBounds(cand.var, std::max(ceil_v, col.lower), col.upper);
      } else {
        child.SetBounds(cand.var, col.lower, std::min(floor_v, col.upper));
      }
      const Solution sol = strong_branch_lp(child);
      child.SetBounds(cand.var, col.lower, col.upper);
      if (sol.status == SolveStatus::kOptimal) {
        pc->Update(cand.var, up,
                   (root_score - sign * sol.objective) / std::max(frac_dist, 1e-6));
      } else if (sol.status == SolveStatus::kInfeasible) {
        pc->Update(cand.var, up, infeasible_gain);
      }
      // Any other verdict (time/iteration limit): no observation.
    }
  }
}

}  // namespace medea::solver::internal
