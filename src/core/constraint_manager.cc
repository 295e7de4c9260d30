#include "src/core/constraint_manager.h"

#include "src/common/strings.h"
#include "src/core/constraint_parser.h"

namespace medea {
namespace {

// True iff operator atomic `op` conflicts-and-overrides application atomic
// `app`: same subject, same group kind, same single target tags, and the
// operator's cardinality interval is contained in the application's.
bool OperatorOverrides(const AtomicConstraint& op, const AtomicConstraint& app) {
  if (!(op.subject == app.subject) || op.node_group != app.node_group) {
    return false;
  }
  if (op.targets.size() != 1 || app.targets.size() != 1) {
    return false;
  }
  const TagConstraint& ot = op.targets[0];
  const TagConstraint& at = app.targets[0];
  if (!(ot.c_tags == at.c_tags)) {
    return false;
  }
  return ot.cmin >= at.cmin && ot.cmax <= at.cmax;
}

}  // namespace

ConstraintManager::ConstraintManager(std::shared_ptr<const NodeGroupRegistry> groups)
    : groups_(std::move(groups)) {
  MEDEA_CHECK(groups_ != nullptr);
}

Status ConstraintManager::Validate(const PlacementConstraint& constraint) const {
  if (constraint.clauses.empty()) {
    return Status::InvalidArgument("constraint has no clauses");
  }
  if (constraint.weight <= 0.0) {
    return Status::InvalidArgument("constraint weight must be positive");
  }
  if (constraint.origin == ConstraintOrigin::kApplication && !constraint.owner.IsValid()) {
    return Status::InvalidArgument("application constraint requires an owner");
  }
  for (const auto& clause : constraint.clauses) {
    if (clause.empty()) {
      return Status::InvalidArgument("empty clause in constraint");
    }
    for (const AtomicConstraint& atomic : clause) {
      if (atomic.subject.empty()) {
        return Status::InvalidArgument("constraint with empty subject");
      }
      if (atomic.targets.empty()) {
        return Status::InvalidArgument("constraint with no tag constraints");
      }
      if (!groups_->HasKind(atomic.node_group)) {
        return Status::InvalidArgument("unknown node group kind: " + atomic.node_group);
      }
      for (const TagConstraint& tc : atomic.targets) {
        if (tc.cmin < 0) {
          return Status::InvalidArgument("negative cmin");
        }
        if (tc.cmax != kCardinalityInfinity && tc.cmax < tc.cmin) {
          return Status::InvalidArgument("cmax below cmin");
        }
        if (tc.c_tags.empty()) {
          return Status::InvalidArgument("tag constraint with empty target tags");
        }
      }
    }
  }
  return Status::Ok();
}

Result<ConstraintId> ConstraintManager::Add(PlacementConstraint constraint) {
  const Status status = Validate(constraint);
  if (!status.ok()) {
    return status;
  }
  const ConstraintId id(next_id_++);
  constraints_.emplace(id.value, std::move(constraint));
  return id;
}

Result<ConstraintId> ConstraintManager::AddFromText(std::string_view text, ConstraintOrigin origin,
                                                    ApplicationId owner) {
  auto parsed = ParseConstraint(text, tags_);
  if (!parsed.ok()) {
    return parsed.status();
  }
  parsed->origin = origin;
  parsed->owner = owner;
  return Add(std::move(*parsed));
}

Status ConstraintManager::AddOperatorConstraint(std::string_view text) {
  if (operator_texts_.count(text) > 0) {
    return Status::Ok();
  }
  auto result = AddFromText(text, ConstraintOrigin::kOperator);
  if (!result.ok()) {
    return result.status();
  }
  operator_texts_.emplace(text);
  return Status::Ok();
}

Status ConstraintManager::Remove(ConstraintId id) {
  if (constraints_.erase(id.value) == 0) {
    return Status::NotFound(StrFormat("no constraint C%u", id.value));
  }
  return Status::Ok();
}

int ConstraintManager::RemoveApplicationConstraints(ApplicationId app) {
  int removed = 0;
  for (auto it = constraints_.begin(); it != constraints_.end();) {
    if (it->second.origin == ConstraintOrigin::kApplication && it->second.owner == app) {
      it = constraints_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

const PlacementConstraint* ConstraintManager::Find(ConstraintId id) const {
  const auto it = constraints_.find(id.value);
  return it == constraints_.end() ? nullptr : &it->second;
}

std::vector<std::pair<ConstraintId, const PlacementConstraint*>> ConstraintManager::All() const {
  std::vector<std::pair<ConstraintId, const PlacementConstraint*>> out;
  out.reserve(constraints_.size());
  for (const auto& [id, constraint] : constraints_) {
    out.emplace_back(ConstraintId(id), &constraint);
  }
  return out;
}

std::vector<std::pair<ConstraintId, const PlacementConstraint*>> ConstraintManager::Effective()
    const {
  std::vector<std::pair<ConstraintId, const PlacementConstraint*>> out;
  out.reserve(constraints_.size());
  for (const auto& [id, constraint] : constraints_) {
    bool overridden = false;
    if (constraint.origin == ConstraintOrigin::kApplication && constraint.IsSimple()) {
      const AtomicConstraint& app_atomic = constraint.clauses[0][0];
      for (const auto& [other_id, other] : constraints_) {
        if (other_id != id && other.origin == ConstraintOrigin::kOperator && other.IsSimple() &&
            OperatorOverrides(other.clauses[0][0], app_atomic)) {
          overridden = true;
          break;
        }
      }
    }
    if (!overridden) {
      out.emplace_back(ConstraintId(id), &constraint);
    }
  }
  return out;
}

}  // namespace medea
