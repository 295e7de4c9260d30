// Copyright (c) Medea reproduction authors.
// Placement-service throughput: one million container requests against a
// 10,000-node topology, driven through the batched snapshot service
// (src/runtime/placement_service.h) — planner workers against epoch
// snapshots, batched multi-LRA planning, a single revalidating committer.
//
// Two tiers share the topology:
//   greedy-service — the bulk tier: ~7.8k LRAs x 128 containers through the
//                    Serial greedy planner (the service's fast path);
//   ilp-service    — a smaller tier through the decomposed multi-app ILP
//                    (the paper's Eq. 1 path, component decomposition on).
//
// Submission is closed-loop: Submit() blocks on the admission bound, so the
// reported p50/p95/p99 end-to-end placement latency (Submit -> committed,
// from the shared obs registry's service.place_latency_ms histogram)
// reflects pipeline depth, not total run length. Results are written to
// BENCH_service_throughput.json for tools/check_bench.py.
//
// Usage: bench_service_throughput [--containers N] [--nodes N] [--out FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"

namespace medea::bench {
namespace {

constexpr int kContainersPerLra = 128;
constexpr Resource kNodeCapacity = Resource(256 * 1024, 128);  // 256 GB, 128 cores
constexpr Resource kContainerDemand = Resource(2048, 1);

struct TierResult {
  std::string tier;
  size_t apps = 0;
  size_t containers_requested = 0;
  long long lras_placed = 0;
  long long lras_rejected = 0;
  size_t containers_committed = 0;
  bool all_resolved = false;
  double wall_s = 0.0;
  double containers_per_s = 0.0;
  uint64_t epochs = 0;
  obs::LatencyHistogram::Snapshot latency;  // service.place_latency_ms
  obs::LatencyHistogram::Snapshot plan;     // service.plan_ms
  obs::LatencyHistogram::Snapshot commit;   // service.commit_ms
};

ClusterState MakeTopology(size_t nodes) {
  return ClusterBuilder()
      .NumNodes(nodes)
      .NumRacks(std::max<size_t>(1, nodes / 250))  // ~250 nodes per rack
      .NumUpgradeDomains(20)
      .NumServiceUnits(100)
      .NodeCapacity(kNodeCapacity)
      .Build();
}

// Runs one tier: `apps` LRAs of `containers_per_lra` containers each,
// submitted closed-loop through a freshly started service.
TierResult RunTier(const std::string& tier, size_t nodes, size_t apps, int containers_per_lra,
                   const runtime::PlacementService::SchedulerFactory& factory) {
  ResetBenchRegistry();
  ClusterState state = MakeTopology(nodes);
  ConstraintManager manager(state.groups_ptr());
  const TagId tag = manager.tags().Intern("svc_bench");

  runtime::ServiceConfig config;
  config.max_batch = 16;
  config.admission_capacity = 64;
  config.num_workers = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()) - 2, 2, 8);
  config.plan_queue_capacity = 8;
  runtime::PlacementService service(config, std::move(state), std::move(manager));
  service.Start(factory);

  const auto start = std::chrono::steady_clock::now();
  for (size_t a = 0; a < apps; ++a) {
    LraRequest request;
    request.app = ApplicationId(static_cast<uint32_t>(a + 1));
    request.containers.assign(static_cast<size_t>(containers_per_lra),
                              ContainerRequest{kContainerDemand, {tag}});
    service.Submit(std::move(request));  // blocks at the admission bound
  }
  const bool all_resolved = service.WaitIdle(std::chrono::minutes(30));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  TierResult result;
  result.tier = tier;
  result.apps = apps;
  result.containers_requested = apps * static_cast<size_t>(containers_per_lra);
  const runtime::ServiceMetrics metrics = service.metrics();
  result.lras_placed = metrics.lras_placed;
  result.lras_rejected = metrics.lras_rejected;
  service.WithLiveState([&](const ClusterState& live) {
    result.containers_committed = live.num_long_running_containers();
  });
  result.all_resolved = all_resolved;
  result.wall_s = wall_s;
  result.containers_per_s = static_cast<double>(result.containers_committed) / wall_s;
  result.epochs = service.epoch();
  result.latency = HistogramSnapshot("service.place_latency_ms");
  result.plan = HistogramSnapshot("service.plan_ms");
  result.commit = HistogramSnapshot("service.commit_ms");
  service.Stop();
  return result;
}

void PrintTier(const TierResult& r) {
  std::printf("%-16s %7zu apps %9zu containers  %8.1fs  %10.0f cont/s  "
              "place p50/p95/p99 %.1f/%.1f/%.1f ms  epochs %llu%s\n",
              r.tier.c_str(), r.apps, r.containers_committed, r.wall_s, r.containers_per_s,
              r.latency.p50, r.latency.p95, r.latency.p99,
              static_cast<unsigned long long>(r.epochs),
              r.all_resolved ? "" : "  [TIMED OUT]");
  std::fflush(stdout);
}

void Record(JsonRecords& out, const TierResult& r) {
  out.Begin()
      .Field("kind", "tier")
      .Field("tier", r.tier)
      .Field("apps", static_cast<long long>(r.apps))
      .Field("containers_requested", static_cast<long long>(r.containers_requested))
      .Field("containers_committed", static_cast<long long>(r.containers_committed))
      .Field("lras_placed", r.lras_placed)
      .Field("lras_rejected", r.lras_rejected)
      .Field("all_resolved", r.all_resolved)
      .Field("wall_s", r.wall_s)
      .Field("containers_per_s", r.containers_per_s)
      .Field("epochs", static_cast<long long>(r.epochs))
      .Field("p50_ms", r.latency.p50)
      .Field("p95_ms", r.latency.p95)
      .Field("p99_ms", r.latency.p99)
      .Field("plan_p99_ms", r.plan.p99)
      .Field("commit_p99_ms", r.commit.p99)
      .End();
}

int Run(size_t containers, size_t nodes, const std::string& out_path) {
  PrintHeader("Service throughput — batched snapshot placement service",
              "1M containers / 10k nodes; p99 placement latency from service.place_latency_ms");

  // Bulk tier: Serial greedy planner; apps sized so requested containers
  // reach the target (last app rounds up).
  const size_t greedy_apps =
      (containers + static_cast<size_t>(kContainersPerLra) - 1) / kContainersPerLra;
  SchedulerConfig greedy_config;
  greedy_config.node_pool_size = 256;
  greedy_config.candidates_per_container = 64;
  const TierResult greedy = RunTier(
      "greedy-service", nodes, greedy_apps, kContainersPerLra,
      [&] { return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, greedy_config); });
  PrintTier(greedy);

  // ILP tier: smaller batch of multi-container apps through the decomposed
  // multi-app ILP on the same topology.
  SchedulerConfig ilp_config;
  ilp_config.node_pool_size = 96;
  ilp_config.candidates_per_container = 32;
  ilp_config.ilp_time_limit_seconds = 0.5;
  ilp_config.solver_decompose = true;
  const TierResult ilp =
      RunTier("ilp-service", nodes, /*apps=*/128, /*containers_per_lra=*/8,
              [&] { return std::make_unique<MedeaIlpScheduler>(ilp_config); });
  PrintTier(ilp);

  JsonRecords out;
  out.Begin()
      .Field("kind", "env")
      .Field("build_type", MEDEA_BENCH_BUILD_TYPE)
      .Field("compiler", MEDEA_BENCH_COMPILER)
      .Field("hardware_threads",
             static_cast<long long>(std::thread::hardware_concurrency()))
      .Field("git_sha", MEDEA_BENCH_GIT_SHA)
      .Field("nodes", static_cast<long long>(nodes))
      .End();
  Record(out, greedy);
  Record(out, ilp);
  if (!out.WriteFile(out_path)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return (greedy.all_resolved && ilp.all_resolved) ? 0 : 1;
}

}  // namespace
}  // namespace medea::bench

int main(int argc, char** argv) {
  size_t containers = 1'000'000;
  size_t nodes = 10'000;
  std::string out_path = "BENCH_service_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--containers") == 0 && i + 1 < argc) {
      containers = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--containers N] [--nodes N] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  return medea::bench::Run(containers, nodes, out_path);
}
