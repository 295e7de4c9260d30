#include "src/verify/scenario_fuzzer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/lra_pipeline.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/jkube.h"
#include "src/schedulers/yarn.h"
#include "src/sim/simulation.h"
#include "src/solver/incremental_lp.h"
#include "src/solver/mip.h"
#include "src/verify/self_certify.h"
#include "src/workload/lra_templates.h"

namespace medea::verify {
namespace {

constexpr Resource kCapacityChoices[] = {
    Resource(8 * 1024, 4),
    Resource(16 * 1024, 8),
    Resource(24 * 1024, 12),
};

// One generated scenario: a populated cluster plus a fresh submission batch,
// with every constraint registered in the manager.
struct Scenario {
  ClusterState state;
  ConstraintManager manager;
  std::vector<LraRequest> lras;

  explicit Scenario(ClusterState s) : state(std::move(s)), manager(state.groups_ptr()) {}
};

LraSpec MakeRandomSpec(Rng& rng, ApplicationId app, TagPool& tags) {
  switch (rng.NextBounded(5)) {
    case 0:
      return MakeHBaseInstance(app, tags, /*num_workers=*/static_cast<int>(rng.NextInt(2, 4)));
    case 1:
      return MakeTensorFlowInstance(app, tags, /*num_workers=*/static_cast<int>(rng.NextInt(2, 3)),
                                    /*num_ps=*/static_cast<int>(rng.NextInt(1, 2)));
    case 2:
      return MakeStormInstance(app, tags,
                               /*num_supervisors=*/static_cast<int>(rng.NextInt(2, 4)));
    case 3:
      return MakeMemcachedInstance(app, tags);
    default:
      return MakeGenericLra(app, tags, static_cast<int>(rng.NextInt(1, 3)),
                            "fz" + std::to_string(rng.NextBounded(3)));
  }
}

void RegisterSpecConstraints(const LraSpec& spec, ApplicationId app, ConstraintManager& manager,
                             std::vector<std::string>& operator_texts) {
  for (const std::string& text : spec.shared_constraints) {
    if (std::find(operator_texts.begin(), operator_texts.end(), text) != operator_texts.end()) {
      continue;  // operator constraints are cluster-wide; register once
    }
    operator_texts.push_back(text);
    MEDEA_CHECK(manager.AddFromText(text, ConstraintOrigin::kOperator).ok());
  }
  for (const std::string& text : spec.app_constraints) {
    MEDEA_CHECK(manager.AddFromText(text, ConstraintOrigin::kApplication, app).ok());
  }
}

Scenario GenerateScenario(Rng& rng, const SchedulerConfig& config) {
  Scenario scenario(ClusterBuilder()
                        .NumNodes(static_cast<size_t>(rng.NextInt(6, 20)))
                        .NumRacks(static_cast<size_t>(rng.NextInt(2, 4)))
                        .NumUpgradeDomains(static_cast<size_t>(rng.NextInt(2, 4)))
                        .NumServiceUnits(static_cast<size_t>(rng.NextInt(2, 5)))
                        .NodeCapacity(kCapacityChoices[rng.NextBounded(3)])
                        .Build());
  // Static hardware tags on a random subset of nodes, to exercise the static
  // leg of the tag-cardinality accounting.
  const TagId ssd = scenario.manager.tags().Intern("fz_ssd");
  for (size_t n = 0; n < scenario.state.num_nodes(); ++n) {
    if (rng.NextBool(0.3)) {
      scenario.state.AddStaticNodeTag(NodeId(static_cast<uint32_t>(n)), ssd);
    }
  }

  std::vector<std::string> operator_texts;
  uint32_t next_app = 0;

  // Pre-deployed LRAs: placed by the Serial greedy and committed, so the
  // fresh batch competes with existing containers and their constraints.
  const int num_existing = static_cast<int>(rng.NextInt(0, 2));
  for (int i = 0; i < num_existing; ++i) {
    const ApplicationId app(next_app++);
    LraSpec spec = MakeRandomSpec(rng, app, scenario.manager.tags());
    RegisterSpecConstraints(spec, app, scenario.manager, operator_texts);
    PlacementProblem problem;
    problem.lras = {spec.request};
    problem.state = &scenario.state;
    problem.manager = &scenario.manager;
    GreedyScheduler serial(GreedyOrdering::kSerial, config);
    const PlacementPlan plan = serial.Place(problem);
    CommitPlan(problem, plan, scenario.state);
  }

  // The fresh submission batch.
  const int num_new = static_cast<int>(rng.NextInt(1, 4));
  for (int i = 0; i < num_new; ++i) {
    const ApplicationId app(next_app++);
    LraSpec spec = MakeRandomSpec(rng, app, scenario.manager.tags());
    RegisterSpecConstraints(spec, app, scenario.manager, operator_texts);
    scenario.lras.push_back(std::move(spec.request));
  }
  return scenario;
}

// Canonical plan serialization (latency excluded): the replay-determinism
// currency. Bit-identical placements serialize identically.
std::string SerializePlan(const PlacementPlan& plan) {
  std::ostringstream os;
  for (const bool placed : plan.lra_placed) {
    os << (placed ? '1' : '0');
  }
  os << '|';
  std::vector<std::tuple<int, int, uint32_t>> assignments;
  assignments.reserve(plan.assignments.size());
  for (const Assignment& a : plan.assignments) {
    assignments.emplace_back(a.lra_index, a.container_index, a.node.value);
  }
  std::sort(assignments.begin(), assignments.end());
  for (const auto& [l, c, n] : assignments) {
    os << l << ',' << c << ',' << n << ';';
  }
  return os.str();
}

// Canonical committed-state serialization: container ids, owners, hosts,
// demands and tag lists in container-id order. Two states that committed the
// same placements in the same order serialize identically.
std::string SerializeState(const ClusterState& state) {
  std::ostringstream os;
  state.ForEachContainer([&](const ContainerInfo& info) {
    os << info.id.value << ':' << info.app.value << '@' << info.node.value << '('
       << info.resource.memory_mb << ',' << info.resource.vcores << ')';
    for (const TagId tag : info.tags) {
      os << '#' << tag.value;
    }
    os << (info.long_running ? "L;" : "T;");
  });
  return os.str();
}

// A branch-and-bound run is reproducible only if the search completed:
// kOptimal / kInfeasible mean every node was explored, while a deadline- or
// node-limit-cut search returns whatever incumbent the budget caught
// (reported as kFeasible or kTimeLimit), which is wall-clock-dependent.
bool IlpSolveReproducible(const MedeaIlpScheduler& ilp) {
  const auto& stats = ilp.last_stats();
  const bool complete = stats.status == solver::SolveStatus::kOptimal ||
                        stats.status == solver::SolveStatus::kInfeasible;
  return complete && !stats.mip.hit_time_limit && !stats.mip.hit_node_limit;
}

// The scheduler families under test. `family` 0..3 with per-seed variant
// rotation within the family.
std::unique_ptr<LraScheduler> MakeScheduler(int family, uint64_t seed,
                                            const SchedulerConfig& config) {
  switch (family) {
    case 0:
      return std::make_unique<MedeaIlpScheduler>(config);
    case 1: {
      constexpr GreedyOrdering kOrderings[] = {GreedyOrdering::kSerial,
                                               GreedyOrdering::kTagPopularity,
                                               GreedyOrdering::kNodeCandidates};
      return std::make_unique<GreedyScheduler>(kOrderings[seed % 3], config);
    }
    case 2:
      return std::make_unique<YarnScheduler>(
          config, seed % 2 == 0 ? YarnPolicy::kRandom : YarnPolicy::kPack);
    default:
      return std::make_unique<JKubeScheduler>(/*support_cardinality=*/seed % 2 == 0, config);
  }
}

class FuzzRun {
 public:
  explicit FuzzRun(const FuzzOptions& options) : options_(options) {}

  FuzzResult Run() {
    for (int i = 0; i < options_.num_seeds; ++i) {
      if (Saturated()) {
        break;
      }
      const uint64_t seed = options_.base_seed + static_cast<uint64_t>(i);
      RunSeed(seed);
      ++result_.stats.seeds_run;
    }
    return std::move(result_);
  }

 private:
  bool Saturated() const {
    return options_.max_failures > 0 &&
           static_cast<int>(result_.failures.size()) >= options_.max_failures;
  }

  void Fail(uint64_t seed, std::string scheduler, std::string invariant, std::string detail) {
    FuzzFailure f;
    f.seed = seed;
    f.scheduler = std::move(scheduler);
    f.invariant = std::move(invariant);
    f.detail = std::move(detail);
    result_.failures.push_back(std::move(f));
  }

  SchedulerConfig ConfigForSeed(uint64_t seed) const {
    SchedulerConfig config;
    config.seed = seed;
    config.ilp_time_limit_seconds = options_.ilp_time_limit_seconds;
    return config;
  }

  void RunSeed(uint64_t seed) {
    Rng rng(seed);
    const SchedulerConfig config = ConfigForSeed(seed);
    Scenario scenario = GenerateScenario(rng, config);

    PlacementProblem problem;
    problem.lras = scenario.lras;
    problem.state = &scenario.state;
    problem.manager = &scenario.manager;

    double ilp_objective = 0.0;
    bool ilp_is_optimal = false;

    for (int family = 0; family < 4 && !Saturated(); ++family) {
      std::unique_ptr<LraScheduler> scheduler = MakeScheduler(family, seed, config);
      MedeaIlpScheduler* ilp = family == 0 ? static_cast<MedeaIlpScheduler*>(scheduler.get())
                                           : nullptr;
      const PlacementPlan plan = scheduler->Place(problem);
      // A budget-cut solve returns whatever incumbent the deadline caught:
      // still checker-valid, but not reproducible, so the bit-identical
      // replay invariant only applies when the search ran to completion.
      const bool truncated = ilp != nullptr && !IlpSolveReproducible(*ilp);

      // Invariant 1: the plan passes the independent checker.
      ++result_.stats.plans_checked;
      const InvariantReport report = InvariantChecker::CheckPlan(problem, plan);
      if (!report.ok()) {
        Fail(seed, scheduler->name(), "invariant-checker", report.ToString());
        continue;
      }
      if (ilp != nullptr) {
        ilp_objective = report.objective;
        ilp_is_optimal = ilp->last_stats().status == solver::SolveStatus::kOptimal;
        if (ilp_is_optimal) {
          ++result_.stats.ilp_optimal;
        }
      }

      // Invariant 2: a checker-clean plan commits cleanly, and the committed
      // state passes the state audit (accounting, tags, groups, differential
      // constraint evaluation).
      ++result_.stats.commits_checked;
      ClusterState scratch = scenario.state;
      if (!CommitPlan(problem, plan, scratch)) {
        Fail(seed, scheduler->name(), "commit",
             "checker-clean plan failed to commit");
      } else {
        const InvariantReport post = InvariantChecker::CheckState(scratch, &scenario.manager);
        if (!post.ok()) {
          Fail(seed, scheduler->name(), "post-commit-state", post.ToString());
        }
      }

      // Invariant 3: deterministic replay — a fresh scheduler instance on the
      // identical problem yields a bit-identical placement.
      if (options_.check_replay && !truncated) {
        const std::unique_ptr<LraScheduler> replayer = MakeScheduler(family, seed, config);
        const PlacementPlan replay = replayer->Place(problem);
        // The replay run is subject to the same wall clock; compare only if
        // it also ran to completion (an asymmetric cutoff is not a bug).
        const bool replay_truncated =
            family == 0 &&
            !IlpSolveReproducible(static_cast<const MedeaIlpScheduler&>(*replayer));
        if (!replay_truncated) {
          ++result_.stats.replays_checked;
          if (SerializePlan(plan) != SerializePlan(replay)) {
            Fail(seed, scheduler->name(), "replay-determinism",
                 "first run: " + SerializePlan(plan) + "\nreplay:    " + SerializePlan(replay));
          }
        }
      }
    }

    // Invariant 4: on proven-optimal instances the ILP's recomputed objective
    // dominates the Serial greedy's (the greedy plan warm-starts the search,
    // so the ILP incumbent can only improve on it).
    if (options_.check_dominance && ilp_is_optimal && !Saturated()) {
      GreedyScheduler serial(GreedyOrdering::kSerial, config);
      const PlacementPlan serial_plan = serial.Place(problem);
      const double serial_objective = InvariantChecker::PlanObjective(problem, serial_plan);
      ++result_.stats.dominance_checked;
      if (ilp_objective + 1e-6 < serial_objective) {
        std::ostringstream os;
        os << "ILP objective " << ilp_objective << " < Serial objective " << serial_objective;
        Fail(seed, "Medea-ILP", "ilp-dominance", os.str());
      }
    }

    if (options_.check_batch && !Saturated()) {
      RunServiceBatchLeg(seed, rng);
    }
    if (options_.check_mip && !Saturated()) {
      RunMipLeg(seed, rng);
    }
    if (options_.check_decompose && !Saturated()) {
      RunDecomposeLeg(seed, rng);
    }
    if (options_.check_cuts && !Saturated()) {
      RunCutsLeg(seed, rng);
    }
    if (options_.check_lp_differential && !Saturated()) {
      RunLpDifferentialLeg(seed, rng);
    }
    if (options_.run_simulation && !Saturated()) {
      RunSimulationLeg(seed, rng);
    }
    // Last, so that adding it left every other leg's random stream as it was.
    if (!Saturated()) {
      RunPipelineLeg(seed, rng);
    }
  }

  // --- Service differential: snapshot-batched vs mutex-sequential -----------

  // Drives one fresh scenario's request stream through the snapshot-batched
  // PlacementService (RunSynchronous: epoch snapshots, COW cluster state,
  // revalidating epoch commits, COW manager republish on rejection) and
  // through the legacy discipline it replaced — a plain sequential loop that
  // plans and commits directly on the live state under one conceptual mutex,
  // with the same deterministic batching and requeue policy. Every batch must
  // produce a bit-identical plan, identical committed placements and an equal
  // Eq. 1 objective, and the two final states must serialize identically.
  void RunServiceBatchLeg(uint64_t seed, Rng& rng) {
    const SchedulerConfig config = ConfigForSeed(seed);
    Scenario scenario = GenerateScenario(rng, config);
    // Heuristic families only (greedy / YARN / J-Kube): their Place() is
    // deterministic at any batch size. ILP reproducibility is wall-clock
    // dependent and already covered by the replay invariant.
    const int family = 1 + static_cast<int>(seed % 3);

    runtime::ServiceConfig service_config;
    service_config.max_batch = 1 + rng.NextBounded(3);  // 1..3: coalesced and degenerate
    runtime::PlacementService service(service_config, scenario.state, scenario.manager);
    for (const LraRequest& lra : scenario.lras) {
      service.Submit(lra);
    }
    std::unique_ptr<LraScheduler> service_scheduler = MakeScheduler(family, seed, config);
    const std::string name = service_scheduler->name() + "/service";
    const std::vector<runtime::BatchOutcome> outcomes = service.RunSynchronous(*service_scheduler);
    ++result_.stats.service_runs;

    // Legacy mutex-sequential reference: identical chunking and requeue
    // policy, fresh scheduler instance of the same family, direct mutation.
    ClusterState reference = scenario.state;
    ConstraintManager reference_manager = scenario.manager;
    std::unique_ptr<LraScheduler> reference_scheduler = MakeScheduler(family, seed, config);
    std::deque<std::pair<LraRequest, int>> queue;  // (request, attempts)
    for (const LraRequest& lra : scenario.lras) {
      queue.emplace_back(lra, 0);
    }
    size_t batch_index = 0;
    while (!queue.empty()) {
      const size_t n = std::min(service_config.max_batch, queue.size());
      PlacementProblem problem;
      std::vector<int> attempts;
      for (size_t i = 0; i < n; ++i) {
        problem.lras.push_back(std::move(queue.front().first));
        attempts.push_back(queue.front().second);
        queue.pop_front();
      }
      problem.state = &reference;
      problem.manager = &reference_manager;
      const PlacementPlan plan = reference_scheduler->Place(problem);

      if (batch_index >= outcomes.size()) {
        Fail(seed, name, "service-batch-count",
             "service committed " + std::to_string(outcomes.size()) +
                 " batches; sequential reference needs more");
        return;
      }
      const runtime::BatchOutcome& outcome = outcomes[batch_index];
      ++result_.stats.service_batches;
      // One epoch per committed batch in the synchronous drain.
      if (outcome.epoch != batch_index) {
        std::ostringstream os;
        os << "batch " << batch_index << " planned against epoch " << outcome.epoch;
        Fail(seed, name, "service-epoch-progression", os.str());
        return;
      }
      if (SerializePlan(plan) != SerializePlan(outcome.plan)) {
        Fail(seed, name, "service-plan-differential",
             "batch " + std::to_string(batch_index) + "\nsequential: " + SerializePlan(plan) +
                 "\nservice:    " + SerializePlan(outcome.plan));
        return;
      }
      // Eq. 1 parity, both recomputed against the same pre-commit state.
      const double reference_objective = InvariantChecker::PlanObjective(problem, plan);
      const double service_objective = InvariantChecker::PlanObjective(problem, outcome.plan);
      if (std::fabs(reference_objective - service_objective) > 1e-9) {
        std::ostringstream os;
        os << "batch " << batch_index << " objective " << reference_objective
           << " (sequential) vs " << service_objective << " (service)";
        Fail(seed, name, "service-objective-differential", os.str());
        return;
      }

      std::vector<bool> committed;
      CommitPlan(problem, plan, reference, &committed);
      if (committed != outcome.committed) {
        Fail(seed, name, "service-commit-differential",
             "batch " + std::to_string(batch_index) +
                 ": committed flags diverge from the sequential reference");
        return;
      }
      // Same requeue policy: a request that did not land retries until
      // max_attempts, then is rejected and its app constraints removed.
      for (size_t i = 0; i < n; ++i) {
        const bool landed = i < committed.size() && committed[i];
        if (landed) {
          continue;
        }
        if (attempts[i] + 1 >= static_cast<int>(service_config.max_attempts)) {
          reference_manager.RemoveApplicationConstraints(problem.lras[i].app);
        } else {
          queue.emplace_back(problem.lras[i], attempts[i] + 1);
        }
      }
      ++batch_index;
    }
    if (batch_index != outcomes.size()) {
      Fail(seed, name, "service-batch-count",
           "service committed " + std::to_string(outcomes.size()) + " batches; sequential ran " +
               std::to_string(batch_index));
      return;
    }

    std::string service_state;
    service.WithLiveState([&](const ClusterState& live) { service_state = SerializeState(live); });
    const std::string reference_state = SerializeState(reference);
    if (service_state != reference_state) {
      Fail(seed, name, "service-state-differential",
           "sequential: " + reference_state + "\nservice:    " + service_state);
      return;
    }
    // The committed service state must also pass the full audit against the
    // service's own (possibly rejection-pruned) manager snapshot.
    const auto manager_snapshot = service.manager_snapshot();
    InvariantReport report;
    service.WithLiveState([&](const ClusterState& live) {
      report = InvariantChecker::CheckState(live, manager_snapshot.get());
    });
    if (!report.ok()) {
      Fail(seed, name, "service-final-state", report.ToString());
    }
  }

  // --- Random MIP models: self-certification + presolve differential --------

  // Appends one independent random block (variables + rows touching only
  // those variables) to `model`. BuildRandomModel appends a single block;
  // RunDecomposeLeg appends several, producing a block-diagonal model whose
  // variable-row incidence graph separates into one component per block.
  void AppendRandomBlock(solver::Model& model, Rng& rng) {
    const int base = model.num_variables();
    const int num_vars = static_cast<int>(rng.NextInt(3, 8));
    for (int j = 0; j < num_vars; ++j) {
      const double objective = static_cast<double>(rng.NextInt(-10, 10));
      switch (rng.NextBounded(3)) {
        case 0:
          model.AddBinary(objective);
          break;
        case 1:
          model.AddVariable(0.0, static_cast<double>(rng.NextInt(1, 5)), objective,
                            solver::VarType::kInteger);
          break;
        default:
          model.AddContinuous(0.0, static_cast<double>(rng.NextInt(1, 10)), objective);
          break;
      }
    }
    // Rows keep x = 0 feasible (<= with rhs >= 0, >= with rhs <= 0), so every
    // generated model has a solution; all variables are bounded, so no model
    // is unbounded.
    const int num_rows = static_cast<int>(rng.NextInt(2, 6));
    for (int r = 0; r < num_rows; ++r) {
      std::vector<std::pair<solver::VarIndex, double>> terms;
      const int num_terms = static_cast<int>(rng.NextInt(1, std::min(num_vars, 4)));
      for (int t = 0; t < num_terms; ++t) {
        double coeff = 0.0;
        while (coeff == 0.0) {
          coeff = static_cast<double>(rng.NextInt(-5, 5));
        }
        terms.emplace_back(base + static_cast<solver::VarIndex>(rng.NextBounded(
                                      static_cast<uint64_t>(num_vars))),
                           coeff);
      }
      if (rng.NextBool(0.5)) {
        model.AddRow(std::move(terms), solver::RowSense::kLessEqual,
                     static_cast<double>(rng.NextInt(0, 15)));
      } else {
        model.AddRow(std::move(terms), solver::RowSense::kGreaterEqual,
                     -static_cast<double>(rng.NextInt(0, 15)));
      }
    }
  }

  solver::Model BuildRandomModel(Rng& rng) {
    solver::Model model;
    model.SetMaximize(rng.NextBool(0.7));
    AppendRandomBlock(model, rng);
    return model;
  }

  void RunMipLeg(uint64_t seed, Rng& rng) {
    const solver::Model model = BuildRandomModel(rng);
    ++result_.stats.mip_models;

    solver::MipOptions mip_options;
    mip_options.time_limit_seconds = 10.0;
    // Exact gaps: "optimal" must mean optimal for the presolve differential.
    mip_options.absolute_gap = 1e-9;
    mip_options.relative_gap = 0.0;

    CertifyOptions certify_options;
    certify_options.absolute_gap = mip_options.absolute_gap;
    certify_options.relative_gap = mip_options.relative_gap;

    double objectives[2] = {0.0, 0.0};
    bool solved[2] = {false, false};
    for (int pass = 0; pass < 2; ++pass) {
      mip_options.presolve = pass == 0;
      solver::MipStats stats;
      const solver::Solution solution = solver::SolveMip(model, mip_options, &stats);
      if (solution.status != solver::SolveStatus::kOptimal) {
        Fail(seed, "mip", "mip-unsolved",
             std::string("tiny model not solved to optimality (presolve ") +
                 (mip_options.presolve ? "on" : "off") +
                 "): " + solver::SolveStatusName(solution.status));
        continue;
      }
      solved[pass] = true;
      objectives[pass] = solution.objective;
      const CertifyReport certified =
          CertifySolution(model, solution, &stats, certify_options);
      if (!certified.ok()) {
        Fail(seed, "mip",
             std::string("mip-certify-presolve-") + (mip_options.presolve ? "on" : "off"),
             certified.ToString());
      }
    }
    if (solved[0] && solved[1] && std::fabs(objectives[0] - objectives[1]) > 1e-5) {
      std::ostringstream os;
      os << "presolve on/off disagree: " << objectives[0] << " vs " << objectives[1];
      Fail(seed, "mip", "mip-presolve-differential", os.str());
    }
  }

  // --- Decomposition differential: stitched vs monolithic -------------------

  void RunDecomposeLeg(uint64_t seed, Rng& rng) {
    // Block-diagonal model: each appended block touches only its own
    // variables, so the decomposed path should find one component per block
    // (a block can split further if the row draw leaves a variable or
    // sub-group unconnected, hence `>=` in the sanity check below).
    solver::Model model;
    model.SetMaximize(rng.NextBool(0.7));
    const int blocks = static_cast<int>(rng.NextInt(1, 3));
    for (int b = 0; b < blocks; ++b) {
      AppendRandomBlock(model, rng);
    }
    ++result_.stats.decompose_models;

    // Monolithic exact reference.
    solver::MipOptions mono_options;
    mono_options.time_limit_seconds = 10.0;
    mono_options.absolute_gap = 1e-9;
    mono_options.relative_gap = 0.0;
    solver::MipStats mono_stats;
    const solver::Solution mono = solver::SolveMip(model, mono_options, &mono_stats);
    if (mono.status != solver::SolveStatus::kOptimal) {
      Fail(seed, "mip", "decompose-mono-unsolved",
           std::string("block-diagonal model not solved to optimality monolithically: ") +
               solver::SolveStatusName(mono.status));
      return;
    }

    // Decomposed exact: same gaps, relax-and-round forced to fire on every
    // component (min_integers=1) — a rejected candidate must fall back to
    // exact branch and bound, so the stitched optimum still matches.
    solver::MipOptions dec_options = mono_options;
    dec_options.decompose = true;
    dec_options.relax_round_min_integers = 1;
    solver::MipStats dec_stats;
    const solver::Solution dec = solver::SolveMip(model, dec_options, &dec_stats);
    CertifyOptions certify_options;
    certify_options.absolute_gap = dec_options.absolute_gap;
    certify_options.relative_gap = dec_options.relative_gap;
    if (dec.status != solver::SolveStatus::kOptimal) {
      Fail(seed, "mip", "decompose-unsolved",
           std::string("decomposed solve not optimal on a monolithically-solved model: ") +
               solver::SolveStatusName(dec.status));
    } else {
      const CertifyReport certified =
          CertifySolution(model, dec, &dec_stats, certify_options);
      if (!certified.ok()) {
        Fail(seed, "mip", "decompose-certify", certified.ToString());
      }
      if (std::fabs(dec.objective - mono.objective) > 1e-5) {
        std::ostringstream os;
        os << "monolithic vs decomposed disagree: " << mono.objective << " vs "
           << dec.objective;
        Fail(seed, "mip", "decompose-differential", os.str());
      }
      if (dec_stats.components < 1) {
        std::ostringstream os;
        os << "decomposed solve reported " << dec_stats.components
           << " components on a " << blocks << "-block model";
        Fail(seed, "mip", "decompose-component-count", os.str());
      }
    }

    // Loose-gap pass: with the default acceptance gaps the relax-and-round
    // fast lane may legitimately keep a near-optimal candidate. The stitched
    // result must still certify (feasible + within its own reported bound)
    // and land within the worst-case summed per-component allowance:
    // components * absolute_gap + relative_gap * sum_j |c_j| * max(|l_j|,|u_j|)
    // (every |component objective| is at most that sum, and all generator
    // variables are bounded, so the bound is finite and computable).
    solver::MipOptions loose_options = dec_options;
    loose_options.absolute_gap = 1e-6;
    loose_options.relative_gap = 0.01;
    solver::MipStats loose_stats;
    const solver::Solution loose = solver::SolveMip(model, loose_options, &loose_stats);
    if (loose.status != solver::SolveStatus::kOptimal &&
        loose.status != solver::SolveStatus::kFeasible) {
      Fail(seed, "mip", "decompose-loose-unsolved",
           std::string("loose-gap decomposed solve found no incumbent: ") +
               solver::SolveStatusName(loose.status));
      return;
    }
    CertifyOptions loose_certify;
    loose_certify.absolute_gap = loose_options.absolute_gap;
    loose_certify.relative_gap = loose_options.relative_gap;
    const CertifyReport loose_certified =
        CertifySolution(model, loose, &loose_stats, loose_certify);
    if (!loose_certified.ok()) {
      Fail(seed, "mip", "decompose-loose-certify", loose_certified.ToString());
    }
    double objective_mass = 0.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const auto& col = model.column(j);
      objective_mass += std::fabs(col.objective) *
                        std::max(std::fabs(col.lower), std::fabs(col.upper));
    }
    const double allowance =
        static_cast<double>(std::max(loose_stats.components, 1)) *
            loose_options.absolute_gap +
        loose_options.relative_gap * objective_mass;
    const double mono_score = model.maximize() ? mono.objective : -mono.objective;
    const double loose_score = model.maximize() ? loose.objective : -loose.objective;
    if (loose_score > mono_score + 1e-5) {
      std::ostringstream os;
      os << "loose-gap decomposed objective beats the exact optimum: " << loose.objective
         << " vs " << mono.objective;
      Fail(seed, "mip", "decompose-loose-superoptimal", os.str());
    }
    if (mono_score - loose_score > allowance + 1e-9) {
      std::ostringstream os;
      os << "loose-gap decomposed objective " << loose.objective << " misses optimum "
         << mono.objective << " by more than the summed gap allowance " << allowance;
      Fail(seed, "mip", "decompose-loose-gap", os.str());
    }
  }

  // --- Cutting-plane differential: cuts on vs off ----------------------------

  // Root cover/clique cuts are only sound if they separate fractional points
  // without ever cutting an integer-feasible one. At exact gaps the search
  // with cuts + pseudo-cost branching must therefore reach the same status
  // and the same optimum as the cut-free most-fractional search, and the
  // strengthened incumbent must still certify against the ORIGINAL model.
  // (Exact gaps matter: with the default 1% relative gap the two different
  // trees may legitimately stop on different within-gap incumbents.)
  void RunCutsLeg(uint64_t seed, Rng& rng) {
    const solver::Model model = BuildRandomModel(rng);
    ++result_.stats.cut_models;

    solver::MipOptions base;
    base.time_limit_seconds = 10.0;
    base.absolute_gap = 1e-9;
    base.relative_gap = 0.0;

    solver::MipOptions off = base;
    off.cuts.enable = false;
    off.branching = solver::BranchingRule::kMostFractional;
    solver::MipStats off_stats;
    const solver::Solution plain = solver::SolveMip(model, off, &off_stats);

    solver::MipOptions on = base;
    on.cuts.enable = true;
    on.branching = solver::BranchingRule::kPseudoCost;
    solver::MipStats on_stats;
    const solver::Solution strengthened = solver::SolveMip(model, on, &on_stats);

    if (plain.status != strengthened.status) {
      Fail(seed, "mip", "cuts-status-differential",
           std::string("cuts off: ") + solver::SolveStatusName(plain.status) +
               " vs cuts on: " + solver::SolveStatusName(strengthened.status));
      return;
    }
    if (plain.status != solver::SolveStatus::kOptimal) {
      return;
    }
    if (std::fabs(plain.objective - strengthened.objective) > 1e-5) {
      std::ostringstream os;
      os << "cuts off/on disagree: " << plain.objective << " vs " << strengthened.objective
         << " (" << on_stats.cuts_generated << " cuts generated)";
      Fail(seed, "mip", "cuts-objective-differential", os.str());
    }
    // The incumbent from the strengthened search must be feasible for (and
    // certify against) the model WITHOUT the cuts — the definition of a
    // globally valid cut.
    CertifyOptions certify_options;
    certify_options.absolute_gap = base.absolute_gap;
    certify_options.relative_gap = base.relative_gap;
    const CertifyReport certified =
        CertifySolution(model, strengthened, &on_stats, certify_options);
    if (!certified.ok()) {
      Fail(seed, "mip", "cuts-certify", certified.ToString());
    }
  }

  // --- LP engine differential: incremental dual simplex vs cold dense --------

  // Locksteps the warm-startable incremental engine (the branch-and-bound
  // node path: dual simplex from the previous basis after a bound change)
  // against the cold dense solver through a random sequence of
  // branching-style bound fixes. Every step must agree on status, and on
  // objective when optimal — including steps that drive the model
  // infeasible, which the dual phase must detect like the dense Phase 1.
  void RunLpDifferentialLeg(uint64_t seed, Rng& rng) {
    solver::Model model = BuildRandomModel(rng);
    if (model.num_variables() == 0) {
      return;
    }
    ++result_.stats.lp_models;

    solver::IncrementalLpSolver inc(model);
    const solver::LpOptions lp_options;
    bool warm_entered = false;
    for (int step = 0; step < 6; ++step) {
      if (step > 0) {
        // Branching-style change: clamp a random variable to one of its
        // bounds (rounded inward for integers), exactly what MoveToNode
        // applies between nodes. Mirror it into the dense solver's model.
        const auto j = static_cast<solver::VarIndex>(
            rng.NextBounded(static_cast<uint64_t>(model.num_variables())));
        const auto& col = model.column(j);
        const bool to_lower = rng.NextBool(0.5);
        const double fixed = to_lower ? col.lower : col.upper;
        model.SetBounds(j, fixed, fixed);
        inc.SetBounds(j, fixed, fixed);
      }
      const solver::Solution warm = inc.Solve(lp_options);
      const solver::Solution dense = solver::SolveLp(model, lp_options);
      ++result_.stats.lp_solves_compared;
      if (warm.status != dense.status) {
        std::ostringstream os;
        os << "step " << step << ": incremental " << solver::SolveStatusName(warm.status)
           << " vs dense " << solver::SolveStatusName(dense.status);
        Fail(seed, "mip", "lp-status-differential", os.str());
        return;
      }
      if (warm.status == solver::SolveStatus::kOptimal &&
          std::fabs(warm.objective - dense.objective) > 1e-6) {
        std::ostringstream os;
        os << "step " << step << ": incremental objective " << warm.objective
           << " vs dense " << dense.objective;
        Fail(seed, "mip", "lp-objective-differential", os.str());
        return;
      }
      warm_entered = warm_entered || inc.last_info().warm;
      if (warm.status == solver::SolveStatus::kInfeasible) {
        return;  // further fixes stay infeasible; nothing left to compare
      }
    }
    // At least one re-solve must have actually taken the warm path —
    // otherwise this leg silently degrades into dense-vs-dense.
    if (!warm_entered) {
      Fail(seed, "mip", "lp-never-warm",
           "incremental engine never re-entered from the previous basis");
    }
  }

  // --- Full-pipeline Simulation leg ------------------------------------------

  void RunSimulationLeg(uint64_t seed, Rng& rng) {
    SimConfig sim_config;
    sim_config.num_nodes = static_cast<size_t>(rng.NextInt(12, 24));
    sim_config.num_racks = 3;
    sim_config.num_upgrade_domains = 3;
    sim_config.num_service_units = 4;
    sim_config.node_capacity = kCapacityChoices[rng.NextBounded(3)];
    sim_config.lra_interval_ms = 1000;
    sim_config.task_heartbeat_ms = 500;
    constexpr ConflictPolicy kPolicies[] = {ConflictPolicy::kResubmit, ConflictPolicy::kKillTasks,
                                            ConflictPolicy::kReserve};
    sim_config.conflict_policy = kPolicies[rng.NextBounded(3)];
    sim_config.migration_interval_ms = rng.NextBool(0.5) ? 4000 : 0;

    const int family = static_cast<int>(seed % 4);
    Simulation sim(sim_config, MakeScheduler(family, seed, ConfigForSeed(seed)));
    const std::string scheduler_name = sim.lra_scheduler().name();
    ++result_.stats.simulations;

    // LRA submissions.
    const int num_lras = static_cast<int>(rng.NextInt(2, 4));
    for (int i = 0; i < num_lras; ++i) {
      const ApplicationId app(static_cast<uint32_t>(i));
      // rng calls sequenced explicitly: argument evaluation order is
      // unspecified and replay must not depend on the compiler.
      const SimTimeMs submit_at = rng.NextInt(0, 3000);
      sim.SubmitLraAt(submit_at, MakeRandomSpec(rng, app, sim.manager().tags()));
    }
    // Task churn.
    const int num_jobs = static_cast<int>(rng.NextInt(1, 2));
    for (int j = 0; j < num_jobs; ++j) {
      std::vector<TaskRequest> tasks;
      const int num_tasks = static_cast<int>(rng.NextInt(1, 4));
      for (int t = 0; t < num_tasks; ++t) {
        const Resource demand(rng.NextInt(512, 2048), 1);
        tasks.emplace_back(demand, rng.NextInt(500, 3000));
      }
      const SimTimeMs job_at = rng.NextInt(0, 2000);
      sim.SubmitTaskJobAt(job_at, std::move(tasks));
    }
    // A node failure + recovery mid-run.
    const NodeId down(static_cast<uint32_t>(rng.NextBounded(sim_config.num_nodes)));
    sim.NodeDownAt(2000, down);
    sim.NodeUpAt(6000, down);
    // Occasionally tear one LRA down to exercise constraint removal.
    if (rng.NextBool(0.5)) {
      sim.RemoveLraAt(7000, ApplicationId(0));
    }

    {
      // Collect failures instead of aborting so every one carries its seed.
      ScopedInvariantAudit audit(/*abort_on_violation=*/false);
      // Bounded horizon: with migration enabled the cycle reschedules itself
      // for as long as any LRA container lives, so an unbounded
      // RunUntilQuiescent would spin ~90k audited migration cycles against
      // its 100-hour safety net. 20 simulated seconds covers every scripted
      // event (latest at t=7000) plus several migration cycles.
      sim.RunUntilQuiescent(/*max_t=*/20'000);
      for (const std::string& failure : audit.failures()) {
        Fail(seed, scheduler_name, "simulation-audit", failure);
        if (Saturated()) {
          return;
        }
      }
    }
    const InvariantReport final_report =
        InvariantChecker::CheckState(sim.state(), &sim.manager());
    if (!final_report.ok()) {
      Fail(seed, scheduler_name, "simulation-final-state", final_report.ToString());
    }
  }

  // --- Fault injection on the LRA pipeline core ------------------------------

  // Drives one fresh scenario's request stream through the LRA pipeline core
  // (src/runtime/lra_pipeline.h) cycle by cycle, the way every front end
  // does, and injects the faults a front end must survive:
  //   * a node lost between plan and commit, which makes the plan stale: every
  //     planned LRA with an assignment on that node must be demoted by
  //     revalidation, and the lost containers come back as failover requests;
  //   * on even seeds, a Medea-ILP whose budget has expired before the solve
  //     starts: every plan must be the Serial greedy's warm-start plan.
  // The InvariantChecker audits the state after every commit, and requests
  // are conserved: submitted (including failovers) == placed + rejected +
  // still pending, after every cycle.
  void RunPipelineLeg(uint64_t seed, Rng& rng) {
    SchedulerConfig config = ConfigForSeed(seed);
    Scenario scenario = GenerateScenario(rng, config);
    const bool expired_budget = seed % 2 == 0;
    std::unique_ptr<LraScheduler> scheduler;
    if (expired_budget) {
      config.ilp_time_limit_seconds = 1e-9;
      scheduler = std::make_unique<MedeaIlpScheduler>(config);
    } else {
      scheduler = MakeScheduler(1 + static_cast<int>(seed % 3), seed, config);
    }
    const std::string name = scheduler->name() + "/pipeline";
    ++result_.stats.pipeline_runs;

    ClusterState& live = scenario.state;
    ConstraintManager& manager = scenario.manager;
    constexpr int kMaxAttempts = 3;
    runtime::LraPipeline pipeline(kMaxAttempts);
    long long submitted = 0;
    long long settled = 0;  // placed + rejected
    for (const LraRequest& lra : scenario.lras) {
      pipeline.Submit(lra, 0);
      ++submitted;
    }
    const int max_batch = 1 + static_cast<int>(rng.NextBounded(3));
    // Each request fails at most kMaxAttempts cycles and each node fails at
    // most once, so a scenario of a few LRAs on at most 20 nodes drains in
    // far fewer cycles than this.
    constexpr long long kMaxCycles = 1000;
    for (long long cycle = 0; !pipeline.empty(); ++cycle) {
      if (cycle > kMaxCycles) {
        Fail(seed, name, "pipeline-termination",
             std::to_string(pipeline.size()) + " LRAs still queued after " +
                 std::to_string(cycle) + " cycles");
        return;
      }
      runtime::LraBatch batch = pipeline.TakeBatch(max_batch);
      PlacementPlan plan = runtime::LraPipeline::Plan(batch, live, manager, *scheduler);
      if (expired_budget &&
          !CheckGreedyFallback(seed, name, batch, live, manager, config, plan,
                               static_cast<const MedeaIlpScheduler&>(*scheduler))) {
        return;
      }

      // Fault: a node goes down after planning, before the commit.
      NodeId lost_node = NodeId::Invalid();
      if (rng.NextBool(0.5)) {
        const NodeId node(static_cast<uint32_t>(rng.NextBounded(live.num_nodes())));
        if (live.node(node).available()) {
          lost_node = node;
          runtime::LostLras lost = runtime::LraPipeline::FailNode(live, node);
          submitted += static_cast<long long>(lost.size());
          pipeline.SubmitFailover(std::move(lost), cycle);
        }
      }
      int planned_on_lost_node = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
        planned_on_lost_node +=
            planned && std::any_of(plan.assignments.begin(), plan.assignments.end(),
                                   [&](const Assignment& a) {
                                     return a.lra_index == static_cast<int>(i) &&
                                            a.node == lost_node;
                                   });
      }

      const runtime::LraCommit commit =
          runtime::LraPipeline::Commit(batch, plan, live, /*stale=*/lost_node.IsValid());
      ++result_.stats.pipeline_commits;
      if (commit.demoted < planned_on_lost_node) {
        std::ostringstream os;
        os << "cycle " << cycle << ": " << planned_on_lost_node
           << " planned LRAs used the lost node, revalidation demoted " << commit.demoted;
        Fail(seed, name, "pipeline-revalidation", os.str());
        return;
      }
      if (lost_node.IsValid() && !live.node(lost_node).containers().empty()) {
        Fail(seed, name, "pipeline-lost-node",
             "a stale commit allocated on the node lost before it");
        return;
      }
      const InvariantReport report = InvariantChecker::CheckState(live, &manager);
      if (!report.ok()) {
        Fail(seed, name, "pipeline-commit-state",
             "cycle " + std::to_string(cycle) + ": " + report.ToString());
        return;
      }

      const runtime::LraResolution resolution = pipeline.Resolve(batch, commit.landed);
      settled += static_cast<long long>(batch.size()) -
                 resolution.Count(runtime::LraVerdict::kRequeued);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (resolution.verdicts[i] == runtime::LraVerdict::kRejected) {
          manager.RemoveApplicationConstraints(batch.lras[i].app);
        }
      }
      if (submitted != settled + static_cast<long long>(pipeline.size())) {
        std::ostringstream os;
        os << "cycle " << cycle << ": submitted " << submitted << " != settled " << settled
           << " + pending " << pipeline.size();
        Fail(seed, name, "pipeline-conservation", os.str());
        return;
      }
    }
  }

  // With an expired budget the ILP solve has no solution, so the plan must be
  // the Serial greedy plan the solve was warm-started from.
  bool CheckGreedyFallback(uint64_t seed, const std::string& name, const runtime::LraBatch& batch,
                           const ClusterState& live, const ConstraintManager& manager,
                           const SchedulerConfig& config, const PlacementPlan& plan,
                           const MedeaIlpScheduler& ilp) {
    if (!ilp.last_stats().greedy_fallback) {
      if (ilp.last_stats().status == solver::SolveStatus::kOptimal ||
          ilp.last_stats().status == solver::SolveStatus::kFeasible) {
        return true;  // solved before its first deadline check; no fallback needed
      }
      Fail(seed, name, "ilp-fallback", "a solve with no solution did not fall back");
      return false;
    }
    ++result_.stats.ilp_fallbacks;
    PlacementProblem problem;
    problem.lras = batch.lras;
    problem.state = &live;
    problem.manager = &manager;
    GreedyScheduler greedy(GreedyOrdering::kSerial, config, /*impact_aware=*/true);
    const PlacementPlan expected = greedy.Place(problem);
    if (SerializePlan(plan) != SerializePlan(expected)) {
      Fail(seed, name, "ilp-fallback",
           "fallback: " + SerializePlan(plan) + "\ngreedy:   " + SerializePlan(expected));
      return false;
    }
    return true;
  }

  FuzzOptions options_;
  FuzzResult result_;
};

}  // namespace

std::string FuzzFailure::ToString() const {
  std::ostringstream os;
  os << "seed " << seed << " [" << scheduler << "] " << invariant << ": " << detail;
  return os.str();
}

std::string FuzzResult::Summary() const {
  std::ostringstream os;
  os << "seeds=" << stats.seeds_run << " plans=" << stats.plans_checked
     << " commits=" << stats.commits_checked << " replays=" << stats.replays_checked
     << " dominance=" << stats.dominance_checked << " (ilp-optimal=" << stats.ilp_optimal
     << ") mip-models=" << stats.mip_models
     << " decompose-models=" << stats.decompose_models
     << " cut-models=" << stats.cut_models
     << " lp-models=" << stats.lp_models
     << " (lp-solves=" << stats.lp_solves_compared << ")"
     << " simulations=" << stats.simulations
     << " service-runs=" << stats.service_runs
     << " (service-batches=" << stats.service_batches << ")"
     << " pipeline-runs=" << stats.pipeline_runs
     << " (pipeline-commits=" << stats.pipeline_commits
     << " ilp-fallbacks=" << stats.ilp_fallbacks << ")"
     << " failures=" << failures.size();
  return os.str();
}

FuzzResult FuzzSchedulers(const FuzzOptions& options) { return FuzzRun(options).Run(); }

}  // namespace medea::verify
