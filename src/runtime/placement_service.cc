#include "src/runtime/placement_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::runtime {

PlacementService::PlacementService(ServiceConfig config, ClusterState initial,
                                   ConstraintManager manager)
    : config_(config),
      epoch_(std::move(initial)),
      plan_queue_(config.plan_queue_capacity),
      start_time_(std::chrono::steady_clock::now()),
      manager_(std::make_shared<const ConstraintManager>(std::move(manager))) {}

PlacementService::~PlacementService() { Stop(); }

SimTimeMs PlacementService::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                               start_time_)
      .count();
}

void PlacementService::Start(const SchedulerFactory& factory) {
  MEDEA_CHECK(!started_);
  started_ = true;
  const int workers = std::max(1, config_.num_workers);
  planners_.reserve(static_cast<size_t>(workers));
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    planners_.push_back(factory());
    LraScheduler* scheduler = planners_.back().get();
    workers_.emplace_back("medea-svc-plan", [this, scheduler] { WorkerLoop(scheduler); });
  }
  committer_ = sync::Thread("medea-svc-commit", [this] { CommitterLoop(); });
}

void PlacementService::Stop() {
  {
    sync::MutexLock lock(&mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    work_cv_.SignalAll();
    admission_cv_.SignalAll();
    idle_cv_.SignalAll();
  }
  // Unblocks planners stuck in Push; the committer's blocking Pop keeps
  // draining the already-planned envelopes and exits on closed-and-empty.
  plan_queue_.Close();
  workers_.clear();
  committer_.Join();
}

void PlacementService::Submit(LraRequest request) {
  sync::MutexLock lock(&mu_);
  while (pending_.size() >= config_.admission_capacity && !stopping_) {
    admission_cv_.Wait(&mu_);
  }
  if (stopping_) {
    return;
  }
  ++metrics_.submitted;
  ++outstanding_;
  pending_.push_back(PendingRequest{std::move(request), NowMs(), 0, /*is_failover=*/false});
  if (obs::MetricsEnabled()) {
    obs::Count("service.requests");
    obs::SetGauge("service.admission_depth", static_cast<double>(pending_.size()));
  }
  work_cv_.Signal();
}

void PlacementService::WithManager(const std::function<void(ConstraintManager&)>& fn) {
  sync::MutexLock lock(&mu_);
  MutateManagerLocked(fn);
}

std::shared_ptr<const ConstraintManager> PlacementService::manager_snapshot() const {
  sync::MutexLock lock(&mu_);
  return manager_;
}

void PlacementService::MutateManagerLocked(const std::function<void(ConstraintManager&)>& fn) {
  // Copy-on-write republish: planner cycles hold the old snapshot safely.
  auto next = std::make_shared<ConstraintManager>(*manager_);
  fn(*next);
  manager_ = std::move(next);
}

bool PlacementService::NextBatchBlocking(std::vector<PendingRequest>* batch,
                                         std::shared_ptr<const ConstraintManager>* manager) {
  sync::MutexLock lock(&mu_);
  while (pending_.empty() && !stopping_) {
    work_cv_.Wait(&mu_);
  }
  if (stopping_) {
    return false;
  }
  const size_t n = std::min(config_.max_batch, pending_.size());
  batch->clear();
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  *manager = manager_;
  ++metrics_.batches;
  admission_cv_.SignalAll();
  if (!pending_.empty()) {
    work_cv_.Signal();  // more work for another planner
  }
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.admission_depth", static_cast<double>(pending_.size()));
  }
  return true;
}

bool PlacementService::NextBatchNow(std::vector<PendingRequest>* batch,
                                    std::shared_ptr<const ConstraintManager>* manager) {
  sync::MutexLock lock(&mu_);
  if (pending_.empty()) {
    return false;
  }
  const size_t n = std::min(config_.max_batch, pending_.size());
  batch->clear();
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  *manager = manager_;
  ++metrics_.batches;
  return true;
}

PlanEnvelope PlacementService::PlanBatch(std::vector<PendingRequest> batch,
                                         LraScheduler& scheduler) {
  const obs::ScopedSpan plan_span("service.plan", "service");
  auto snapshot = epoch_.Acquire();
  // Torn-epoch sentinel (see epoch_state.h) — cheap enough to keep on.
  MEDEA_CHECK(snapshot->epoch == snapshot->epoch_check);
  const auto manager = manager_snapshot();

  PlanEnvelope envelope;
  envelope.lras.reserve(batch.size());
  envelope.attempts.reserve(batch.size());
  envelope.submit_ms.reserve(batch.size());
  envelope.is_failover.reserve(batch.size());
  for (PendingRequest& request : batch) {
    envelope.lras.push_back(std::move(request.request));
    envelope.attempts.push_back(request.attempts);
    envelope.submit_ms.push_back(request.submit_ms);
    envelope.is_failover.push_back(request.is_failover);
  }
  PlacementProblem problem;
  problem.lras = envelope.lras;
  problem.state = &snapshot->state;
  problem.manager = manager.get();
  {
    const obs::ScopedLatencyTimer plan_timer("service.plan_ms");
    envelope.plan = scheduler.Place(problem);
  }
  envelope.snapshot_version = snapshot->epoch;
  if (obs::MetricsEnabled()) {
    obs::Observe("service.batch_size", static_cast<double>(envelope.lras.size()));
  }
  return envelope;
}

void PlacementService::WorkerLoop(LraScheduler* scheduler) {
  std::vector<PendingRequest> batch;
  std::shared_ptr<const ConstraintManager> manager;
  while (NextBatchBlocking(&batch, &manager)) {
    PlanEnvelope envelope = PlanBatch(std::move(batch), *scheduler);
    batch.clear();
    if (!plan_queue_.Push(std::move(envelope))) {
      return;  // closed: shutting down
    }
  }
}

void PlacementService::CommitterLoop() {
  PlanEnvelope envelope;
  while (plan_queue_.Pop(&envelope)) {
    CommitEnvelope(std::move(envelope), nullptr);
  }
}

bool PlacementService::RevalidateLra(const ClusterState& live, const PlanEnvelope& envelope,
                                     size_t lra_index) {
  // Aggregate the plan's demand per node for this LRA and check it still
  // fits the live free capacity on live (up) nodes.
  std::unordered_map<uint32_t, Resource> per_node;
  const LraRequest& lra = envelope.lras[lra_index];
  for (const Assignment& a : envelope.plan.assignments) {
    if (a.lra_index != static_cast<int>(lra_index)) {
      continue;
    }
    if (!a.node.IsValid() || static_cast<size_t>(a.node.value) >= live.num_nodes() ||
        a.container_index < 0 ||
        static_cast<size_t>(a.container_index) >= lra.containers.size()) {
      return false;
    }
    per_node[a.node.value] += lra.containers[static_cast<size_t>(a.container_index)].demand;
  }
  for (const auto& [node_raw, needed] : per_node) {
    const Node& node = live.node(NodeId(node_raw));
    if (!node.available() || !node.Free().Fits(needed)) {
      return false;
    }
  }
  return true;
}

void PlacementService::CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) {
  const obs::ScopedSpan commit_span("service.commit", "service");
  const obs::ScopedLatencyTimer commit_timer("service.commit_ms");
  const bool stale = envelope.snapshot_version != epoch_.epoch();
  PlacementPlan plan = envelope.plan;
  std::vector<bool> committed;
  int revalidation_demotions = 0;
  const uint64_t new_epoch = epoch_.Commit([&](ClusterState& live) {
    // Always revalidate: even a fresh-looking plan can race a concurrent
    // NodeDown between the staleness check above and this commit. The check
    // is per-LRA fit only — trivially true when nothing moved.
    for (size_t i = 0; i < envelope.lras.size(); ++i) {
      const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
      if (planned && !RevalidateLra(live, envelope, i)) {
        plan.lra_placed[i] = false;
        ++revalidation_demotions;
      }
    }
    PlacementProblem problem;
    problem.lras = envelope.lras;
    problem.state = &live;
    CommitPlan(problem, plan, live, &committed);
    AuditStateMutation(live, "service-commit");
  });
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.epoch", static_cast<double>(new_epoch));
    obs::Count("service.plans_committed");
    if (stale) {
      obs::Count("service.stale_plans");
    }
    if (revalidation_demotions > 0) {
      obs::Count("service.stale_lras_revalidated", revalidation_demotions);
    }
  }

  if (outcome != nullptr) {
    outcome->lras = envelope.lras;
    outcome->plan = envelope.plan;
    outcome->committed = committed;
    outcome->epoch = envelope.snapshot_version;
  }

  const SimTimeMs now = NowMs();
  sync::MutexLock lock(&mu_);
  if (stale) {
    ++metrics_.stale_plans;
  }
  for (size_t i = 0; i < envelope.lras.size(); ++i) {
    const bool originally_planned =
        i < envelope.plan.lra_placed.size() && envelope.plan.lra_placed[i];
    const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
    const bool landed = planned && i < committed.size() && committed[i];
    if (landed) {
      if (envelope.is_failover[i]) {
        ++metrics_.failover_replacements;
      } else {
        ++metrics_.lras_placed;
      }
      MEDEA_CHECK(outstanding_ > 0);
      --outstanding_;
      if (obs::MetricsEnabled()) {
        obs::Count("service.lras_placed");
        // End-to-end placement latency: Submit() -> committed on the cluster.
        obs::Observe("service.place_latency_ms",
                     static_cast<double>(now - envelope.submit_ms[i]));
      }
      continue;
    }
    if (originally_planned) {
      ++metrics_.commit_conflicts;
      if (obs::MetricsEnabled()) {
        obs::Count("service.commit_conflicts");
      }
    }
    RequeueOrRejectLocked(PendingRequest{std::move(envelope.lras[i]), envelope.submit_ms[i],
                                         envelope.attempts[i] + 1, envelope.is_failover[i]});
  }
  if (outstanding_ == 0) {
    idle_cv_.SignalAll();
  }
}

void PlacementService::RequeueOrRejectLocked(PendingRequest request) {
  if (request.attempts >= config_.max_attempts) {
    ++metrics_.lras_rejected;
    MEDEA_CHECK(outstanding_ > 0);
    --outstanding_;
    if (obs::MetricsEnabled()) {
      obs::Count("service.lras_rejected");
    }
    // A rejected failover leaves the application's surviving containers
    // deployed, and they stay constrained.
    if (!request.is_failover) {
      const ApplicationId app = request.request.app;
      MutateManagerLocked(
          [app](ConstraintManager& manager) { manager.RemoveApplicationConstraints(app); });
    }
    return;
  }
  ++metrics_.resubmissions;
  if (obs::MetricsEnabled()) {
    obs::Count("service.resubmissions");
  }
  // Requeues bypass the admission bound: blocking the committer on Submit's
  // backpressure would deadlock the pipeline.
  pending_.push_back(std::move(request));
  work_cv_.Signal();
}

void PlacementService::NodeDown(NodeId node) {
  obs::Count("service.node_down_events");
  const SimTimeMs now = NowMs();
  std::unordered_map<ApplicationId, LraRequest, std::hash<ApplicationId>> lost;
  size_t containers_lost = 0;
  epoch_.Commit([&](ClusterState& live) {
    // Snapshot first: releases mutate the node's container list.
    const std::vector<ContainerId> containers(live.node(node).containers().begin(),
                                              live.node(node).containers().end());
    for (ContainerId c : containers) {
      const ContainerInfo* info = live.FindContainer(c);
      MEDEA_CHECK(info != nullptr);
      if (!info->long_running) {
        continue;
      }
      LraRequest& request = lost[info->app];
      request.app = info->app;
      request.containers.push_back(ContainerRequest{info->resource, info->tags});
      ++containers_lost;
      MEDEA_CHECK(live.Release(c).ok());
    }
    live.SetNodeAvailable(node, false);
    AuditStateMutation(live, "service-node-down");
  });
  sync::MutexLock lock(&mu_);
  metrics_.lra_containers_lost += static_cast<long long>(containers_lost);
  // Failover: resubmit the lost containers through the admission queue;
  // their constraints are still registered with the manager.
  for (auto& [app, request] : lost) {
    ++outstanding_;
    pending_.push_back(PendingRequest{std::move(request), now, 0, /*is_failover=*/true});
  }
  if (!lost.empty()) {
    work_cv_.Signal();
  }
}

void PlacementService::NodeUp(NodeId node) {
  epoch_.Commit([&](ClusterState& live) {
    live.SetNodeAvailable(node, true);
    AuditStateMutation(live, "service-node-up");
  });
}

bool PlacementService::WaitIdle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sync::MutexLock lock(&mu_);
  while (outstanding_ > 0 && !stopping_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    idle_cv_.WaitFor(&mu_, deadline - now);
  }
  return outstanding_ == 0;
}

std::vector<BatchOutcome> PlacementService::RunSynchronous(LraScheduler& scheduler) {
  MEDEA_CHECK(!started_);
  std::vector<BatchOutcome> outcomes;
  std::vector<PendingRequest> batch;
  std::shared_ptr<const ConstraintManager> manager;
  while (NextBatchNow(&batch, &manager)) {
    PlanEnvelope envelope = PlanBatch(std::move(batch), scheduler);
    batch.clear();
    BatchOutcome outcome;
    CommitEnvelope(std::move(envelope), &outcome);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

ServiceMetrics PlacementService::metrics() const {
  sync::MutexLock lock(&mu_);
  return metrics_;
}

}  // namespace medea::runtime
