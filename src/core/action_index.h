#ifndef WICLEAN_CORE_ACTION_INDEX_H_
#define WICLEAN_CORE_ACTION_INDEX_H_

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// Identifies an abstract action independently of any pattern: the operation,
/// the *types* of both endpoints, and the relation label.
struct AbstractActionKey {
  EditOp op = EditOp::kAdd;
  TypeId source_type = kInvalidTypeId;
  std::string relation;
  TypeId target_type = kInvalidTypeId;

  /// Stable map/set key.
  std::string Encode() const;

  bool operator==(const AbstractActionKey& other) const {
    return op == other.op && source_type == other.source_type &&
           relation == other.relation && target_type == other.target_type;
  }
  bool operator<(const AbstractActionKey& other) const {
    return Encode() < other.Encode();
  }
};

/// Width of an action-realization table. Its columns are (u, v, t): one row
/// per concrete reduced edit, with u and v the source and target entity ids
/// and t the edit's timestamp. The mining and Algorithm 3 joins glue on u and
/// v; t feeds realization-span computation (window tightening).
inline constexpr size_t kActionRealizationColumns = 3;

/// One abstract action together with its realization relation for a window:
/// a (u, v, t) table of the concrete edits that realize the key.
struct AbstractActionEntry {
  AbstractActionKey key;
  relational::Table realizations;

  AbstractActionEntry(AbstractActionKey k, relational::Table t)
      : key(std::move(k)), realizations(std::move(t)) {}
};

/// Per-window store of abstract actions and their realizations — the paper's
/// abstract_actions[w] / realizations[w][a] (§4.1), built by
/// reduced_and_abstract_actions.
///
/// The index is *incremental*: AddEntities ingests the reduced revision logs
/// of a set of entities (skipping ones already ingested), enumerating every
/// abstraction of each action up to `max_abstraction_lift` taxonomy levels
/// above the endpoint entities' most-specific types. This incrementality is
/// exactly what distinguishes PM from the PM−inc full-graph baseline.
class ActionIndex {
 public:
  /// `registry` and `store` must outlive the index.
  ActionIndex(const EntityRegistry* registry, const RevisionStore* store,
              const TimeWindow& window, int max_abstraction_lift);

  /// Ingests the window's reduced actions of every not-yet-ingested entity in
  /// `entities`. Returns the number of entities actually ingested.
  size_t AddEntities(const std::vector<EntityId>& entities);

  /// True once `entity` has been ingested.
  bool HasEntity(EntityId entity) const {
    return ingested_.count(entity) > 0;
  }

  const TimeWindow& window() const { return window_; }

  /// All abstract-action entries, keyed by AbstractActionKey::Encode().
  const std::map<std::string, AbstractActionEntry>& entries() const {
    return entries_;
  }

  /// Cumulative ingestion counters.
  size_t num_entities_ingested() const { return ingested_.size(); }
  size_t num_actions_ingested() const { return num_actions_; }

 private:
  void IngestAction(const Action& action);

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  TimeWindow window_;
  int max_abstraction_lift_;

  std::unordered_set<EntityId> ingested_;
  size_t num_actions_ = 0;
  std::map<std::string, AbstractActionEntry> entries_;
};

/// Filters a (u, v, t) action-realization table down to rows whose
/// endpoints match the given value bindings (§7 value-specific patterns);
/// kInvalidEntityId means unconstrained. Returns the input unchanged when
/// both bindings are free.
relational::Table FilterRealizationsByBindings(const relational::Table& uvt,
                                               EntityId u_binding,
                                               EntityId v_binding);

}  // namespace wiclean

#endif  // WICLEAN_CORE_ACTION_INDEX_H_
