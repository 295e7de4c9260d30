// Copyright (c) Medea reproduction authors.
// The ConstraintManager (§3, Fig. 6): the central store for container tags,
// node groups, and placement constraints from both application owners and
// the cluster operator. It gives the LRA scheduler a global view of every
// active constraint and implements the §5.2 conflict-resolution rule
// (operator constraints override application constraints when more
// restrictive).

#ifndef SRC_CORE_CONSTRAINT_MANAGER_H_
#define SRC_CORE_CONSTRAINT_MANAGER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/node_group.h"
#include "src/common/result.h"
#include "src/core/constraint.h"
#include "src/core/tags.h"

namespace medea {

class ConstraintManager {
 public:
  explicit ConstraintManager(std::shared_ptr<const NodeGroupRegistry> groups);

  // The shared tag vocabulary. Container tags are interned here when
  // applications are submitted.
  TagPool& tags() { return tags_; }
  const TagPool& tags() const { return tags_; }

  const NodeGroupRegistry& groups() const { return *groups_; }

  // Validates and stores a constraint. Validation checks: at least one
  // clause, every atomic has a subject and a registered node-group kind,
  // cardinalities are sane, weight is positive. Application constraints must
  // carry a valid owner.
  Result<ConstraintId> Add(PlacementConstraint constraint);

  // Parses `text` with ParseConstraint and stores the result with the given
  // origin/owner/weight metadata applied.
  Result<ConstraintId> AddFromText(std::string_view text, ConstraintOrigin origin,
                                   ApplicationId owner = ApplicationId::Invalid());

  // Adds the operator constraint `text` once: a text already accepted is
  // ignored (every LRA that shares a constraint submits it). Fails like
  // AddFromText on a text that does not parse or validate.
  Status AddOperatorConstraint(std::string_view text);

  Status Remove(ConstraintId id);

  // Drops all constraints owned by `app` (called when an LRA finishes).
  // Returns the number removed.
  int RemoveApplicationConstraints(ApplicationId app);

  const PlacementConstraint* Find(ConstraintId id) const;

  size_t size() const { return constraints_.size(); }

  // All stored constraints with ids, in insertion order.
  std::vector<std::pair<ConstraintId, const PlacementConstraint*>> All() const;

  // Constraints after applying conflict resolution: a simple application
  // constraint is dropped when a simple operator constraint has the same
  // subject, target tags and node group, and a more (or equally) restrictive
  // cardinality interval. (§5.2: "cluster operator constraints override the
  // application constraints, as long as they are more restrictive.")
  std::vector<std::pair<ConstraintId, const PlacementConstraint*>> Effective() const;

 private:
  Status Validate(const PlacementConstraint& constraint) const;

  TagPool tags_;
  std::shared_ptr<const NodeGroupRegistry> groups_;
  std::map<uint32_t, PlacementConstraint> constraints_;  // ordered for determinism
  uint32_t next_id_ = 0;
  // Texts AddOperatorConstraint accepted.
  std::set<std::string, std::less<>> operator_texts_;
};

}  // namespace medea

#endif  // SRC_CORE_CONSTRAINT_MANAGER_H_
