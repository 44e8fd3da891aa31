#include "core/action_index.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

std::string AbstractActionKey::Encode() const {
  std::string out;
  out += op == EditOp::kAdd ? '+' : '-';
  out += ' ';
  out += std::to_string(source_type);
  out += ' ';
  out += relation;
  out += ' ';
  out += std::to_string(target_type);
  return out;
}

ActionIndex::ActionIndex(const EntityRegistry* registry,
                         const RevisionStore* store, const TimeWindow& window,
                         int max_abstraction_lift)
    : registry_(registry),
      store_(store),
      window_(window),
      max_abstraction_lift_(max_abstraction_lift) {}

size_t ActionIndex::AddEntities(const std::vector<EntityId>& entities) {
  size_t ingested = 0;
  for (EntityId e : entities) {
    if (!ingested_.insert(e).second) continue;
    ++ingested;
    // Reduce per entity: an entity's log holds all edits of its outgoing
    // links, so edge-level cancellation never spans entities.
    std::vector<Action> reduced =
        ReduceActions(store_->ActionsInWindow(e, window_));
    for (const Action& a : reduced) IngestAction(a);
  }
  return ingested;
}

rel::Table FilterRealizationsByBindings(const rel::Table& uvt,
                                        EntityId u_binding,
                                        EntityId v_binding) {
  if (u_binding == kInvalidEntityId && v_binding == kInvalidEntityId) {
    return uvt;
  }
  rel::Table out(uvt.num_columns());
  for (size_t r = 0; r < uvt.num_rows(); ++r) {
    if (u_binding != kInvalidEntityId &&
        uvt.column(0).Int64At(r) != u_binding) {
      continue;
    }
    if (v_binding != kInvalidEntityId &&
        uvt.column(1).Int64At(r) != v_binding) {
      continue;
    }
    out.AppendRowFrom(uvt, r);
  }
  return out;
}

void ActionIndex::IngestAction(const Action& action) {
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  TypeId src_type = registry_->TypeOf(action.subject);
  TypeId dst_type = registry_->TypeOf(action.object);
  if (src_type == kInvalidTypeId || dst_type == kInvalidTypeId) return;
  ++num_actions_;

  // Enumerate abstractions: every (ancestor-of-source x ancestor-of-target)
  // pair within the lift budget (§3: "the set of possible abstractions can be
  // computed by traversing the type hierarchy").
  std::vector<TypeId> src_levels = taxonomy.AncestorsOf(src_type);
  std::vector<TypeId> dst_levels = taxonomy.AncestorsOf(dst_type);
  size_t src_count = std::min(
      src_levels.size(), static_cast<size_t>(max_abstraction_lift_) + 1);
  size_t dst_count = std::min(
      dst_levels.size(), static_cast<size_t>(max_abstraction_lift_) + 1);

  for (size_t i = 0; i < src_count; ++i) {
    for (size_t j = 0; j < dst_count; ++j) {
      AbstractActionKey key{action.op, src_levels[i], action.relation,
                            dst_levels[j]};
      std::string encoded = key.Encode();
      auto it = entries_.find(encoded);
      if (it == entries_.end()) {
        it = entries_
                 .emplace(std::move(encoded),
                          AbstractActionEntry(
                              key, rel::Table(kActionRealizationColumns)))
                 .first;
      }
      it->second.realizations.AppendInt64Row(
          {action.subject, action.object, action.time});
    }
  }
}

}  // namespace wiclean
