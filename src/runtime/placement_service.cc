#include "src/runtime/placement_service.h"

#include <algorithm>
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
      pipeline_(config.max_attempts),
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
  while (pipeline_.size() >= config_.admission_capacity && !stopping_) {
    admission_cv_.Wait(&mu_);
  }
  if (stopping_) {
    return;
  }
  ++metrics_.submitted;
  ++outstanding_;
  pipeline_.Submit(std::move(request), NowMs());
  if (obs::MetricsEnabled()) {
    obs::Count("service.requests");
    obs::SetGauge("service.admission_depth", static_cast<double>(pipeline_.size()));
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

bool PlacementService::TakeBatch(bool block, LraBatch* batch) {
  sync::MutexLock lock(&mu_);
  while (block && pipeline_.empty() && !stopping_) {
    work_cv_.Wait(&mu_);
  }
  if ((block && stopping_) || pipeline_.empty()) {
    return false;
  }
  *batch = pipeline_.TakeBatch(static_cast<int>(config_.max_batch));
  ++metrics_.batches;
  admission_cv_.SignalAll();
  if (!pipeline_.empty()) {
    work_cv_.Signal();  // more work for another planner
  }
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.admission_depth", static_cast<double>(pipeline_.size()));
  }
  return true;
}

PlanEnvelope PlacementService::PlanBatch(LraBatch batch, LraScheduler& scheduler) {
  const obs::ScopedSpan plan_span("service.plan", "service");
  auto snapshot = epoch_.Acquire();
  // Torn-epoch sentinel (see epoch_state.h) — cheap enough to keep on.
  MEDEA_CHECK(snapshot->epoch == snapshot->epoch_check);
  const auto manager = manager_snapshot();

  PlanEnvelope envelope;
  envelope.batch = std::move(batch);
  {
    const obs::ScopedLatencyTimer plan_timer("service.plan_ms");
    envelope.plan = LraPipeline::Plan(envelope.batch, snapshot->state, *manager, scheduler);
  }
  envelope.snapshot_version = snapshot->epoch;
  if (obs::MetricsEnabled()) {
    obs::Observe("service.batch_size", static_cast<double>(envelope.batch.size()));
  }
  return envelope;
}

void PlacementService::WorkerLoop(LraScheduler* scheduler) {
  LraBatch batch;
  while (TakeBatch(/*block=*/true, &batch)) {
    if (!plan_queue_.Push(PlanBatch(std::move(batch), *scheduler))) {
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

void PlacementService::CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) {
  const obs::ScopedSpan commit_span("service.commit", "service");
  const obs::ScopedLatencyTimer commit_timer("service.commit_ms");
  LraBatch& batch = envelope.batch;
  bool stale = false;
  LraCommit commit;
  const uint64_t new_epoch = epoch_.Commit([&](ClusterState& live) {
    // Judged under the writer lock: a racing NodeDown cannot slip in.
    stale = envelope.snapshot_version != epoch_.epoch();
    commit = LraPipeline::Commit(batch, envelope.plan, live, stale);
    AuditStateMutation(live, "service-commit");
  });
  if (obs::MetricsEnabled()) {
    obs::SetGauge("service.epoch", static_cast<double>(new_epoch));
    obs::Count("service.plans_committed");
    if (stale) {
      obs::Count("service.stale_plans");
    }
    if (commit.demoted > 0) {
      obs::Count("service.stale_lras_revalidated", commit.demoted);
    }
    if (commit.conflicts > 0) {
      obs::Count("service.commit_conflicts", commit.conflicts);
    }
  }

  if (outcome != nullptr) {
    outcome->lras = batch.lras;
    outcome->plan = envelope.plan;
    outcome->committed = commit.landed;
    outcome->epoch = envelope.snapshot_version;
  }

  const SimTimeMs now = NowMs();
  sync::MutexLock lock(&mu_);
  if (stale) {
    ++metrics_.stale_plans;
  }
  metrics_.commit_conflicts += commit.conflicts;
  const LraResolution resolution = pipeline_.Resolve(batch, commit.landed);
  const int requeued = resolution.Count(LraVerdict::kRequeued);
  metrics_.lras_placed += resolution.Count(LraVerdict::kPlaced);
  metrics_.failover_replacements += resolution.Count(LraVerdict::kFailoverPlaced);
  metrics_.resubmissions += requeued;
  metrics_.lras_rejected +=
      resolution.Count(LraVerdict::kRejected) + resolution.Count(LraVerdict::kFailoverRejected);
  // Requeued requests stay outstanding; every other one is settled.
  // Requeues bypass the admission bound: blocking the committer on
  // Submit's backpressure would deadlock the pipeline.
  const size_t settled = batch.size() - static_cast<size_t>(requeued);
  MEDEA_CHECK(outstanding_ >= settled);
  outstanding_ -= settled;
  for (size_t i = 0; i < batch.size(); ++i) {
    const LraVerdict verdict = resolution.verdicts[i];
    if (obs::MetricsEnabled()) {
      if (commit.landed[i]) {
        obs::Count("service.lras_placed");
        // End-to-end placement latency: Submit() -> committed on the cluster.
        obs::Observe("service.place_latency_ms", static_cast<double>(now - batch.submit_ms[i]));
      } else {
        obs::Count(verdict == LraVerdict::kRequeued ? "service.resubmissions"
                                                    : "service.lras_rejected");
      }
    }
    if (verdict == LraVerdict::kRejected) {
      const ApplicationId app = batch.lras[i].app;
      MutateManagerLocked(
          [app](ConstraintManager& manager) { manager.RemoveApplicationConstraints(app); });
    }
  }
  if (requeued > 0) {
    work_cv_.Signal();
  }
  if (outstanding_ == 0) {
    idle_cv_.SignalAll();
  }
}

void PlacementService::NodeDown(NodeId node) {
  obs::Count("service.node_down_events");
  const SimTimeMs now = NowMs();
  LostLras lost;
  epoch_.Commit([&](ClusterState& live) {
    lost = LraPipeline::FailNode(live, node);
    AuditStateMutation(live, "service-node-down");
  });
  sync::MutexLock lock(&mu_);
  outstanding_ += lost.size();
  metrics_.lra_containers_lost +=
      static_cast<long long>(pipeline_.SubmitFailover(std::move(lost), now));
  work_cv_.Signal();
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
  LraBatch batch;
  while (TakeBatch(/*block=*/false, &batch)) {
    BatchOutcome outcome;
    CommitEnvelope(PlanBatch(std::move(batch), scheduler), &outcome);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

ServiceMetrics PlacementService::metrics() const {
  sync::MutexLock lock(&mu_);
  return metrics_;
}

}  // namespace medea::runtime
