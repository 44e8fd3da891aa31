#include "core/partial.h"

#include <algorithm>

#include "core/action_index.h"
#include "relational/ops.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

std::string PartialRealization::Signature() const {
  std::string out = "b:";
  for (const auto& b : bindings) {
    out += b.has_value() ? std::to_string(*b) : "_";
    out += ',';
  }
  out += " m:";
  for (size_t m : missing_actions) {
    out += std::to_string(m);
    out += ',';
  }
  return out;
}

namespace {

/// Width of the accumulated relation: one nullable column per pattern
/// variable (the coalesced bindings), then one (u, v) column pair per
/// already-processed action that records which concrete action realization
/// (if any) supports the row.
size_t AccWidth(const Pattern& pattern, size_t num_processed) {
  return pattern.num_vars() + 2 * num_processed;
}

}  // namespace

Result<PartialUpdateReport> DetectPartialsFromRealizations(
    const Pattern& pattern, const TimeWindow& window,
    const TypeTaxonomy& taxonomy,
    const std::function<const rel::Table*(size_t action_index)>& realizations,
    const PartialDetectorOptions& options) {
  if (pattern.num_actions() == 0) {
    return Status::InvalidArgument("cannot detect partials of an empty pattern");
  }
  WICLEAN_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           PatternTraversalOrder(pattern));

  const size_t num_vars = pattern.num_vars();

  // Empty (u, v, t) relation used when an abstract action has no
  // realizations at all in this window.
  const rel::Table empty_uv(kActionRealizationColumns);

  std::vector<rel::Table> bound_tables;  // filtered copies for bound vars
  bound_tables.reserve(pattern.num_actions());
  auto action_realizations = [&](size_t i) -> const rel::Table& {
    const rel::Table* raw = realizations(i);
    if (raw == nullptr) return empty_uv;
    if (!pattern.HasBindings()) return *raw;
    const AbstractAction& a = pattern.actions()[i];
    bound_tables.push_back(FilterRealizationsByBindings(
        *raw, pattern.var_binding(a.source_var),
        pattern.var_binding(a.target_var)));
    return bound_tables.back();
  };

  // Seed the accumulator with the first action's realizations (line 6).
  std::vector<size_t> processed = {order[0]};
  rel::Table acc(AccWidth(pattern, processed.size()));
  {
    const AbstractAction& a0 = pattern.actions()[order[0]];
    const rel::Table& r0 = action_realizations(order[0]);
    for (size_t r = 0; r < r0.num_rows(); ++r) {
      int64_t u = r0.column(0).Int64At(r);
      int64_t v = r0.column(1).Int64At(r);
      if (u == v) continue;  // distinct variables bind distinct entities
      std::vector<rel::Cell> row(num_vars + 2);
      row[a0.source_var] = u;
      row[a0.target_var] = v;
      row[num_vars] = u;
      row[num_vars + 1] = v;
      acc.AppendRow(row);
    }
  }

  // Lines 7-9: fold in the remaining actions with full outer joins.
  std::vector<char> var_known(num_vars, 0);
  var_known[pattern.actions()[order[0]].source_var] = 1;
  var_known[pattern.actions()[order[0]].target_var] = 1;

  for (size_t step = 1; step < order.size(); ++step) {
    size_t ai = order[step];
    const AbstractAction& a = pattern.actions()[ai];
    const rel::Table& ra = action_realizations(ai);

    rel::JoinSpec spec;
    spec.null_inequality_passes = true;
    spec.prefer_nested_loop = !options.use_hash_join;
    // The action's source must agree with the (coalesced) source binding.
    spec.equal_cols.push_back({static_cast<size_t>(a.source_var), 0});
    if (var_known[a.target_var]) {
      // Target already bound somewhere: wildcard equality lets rows with a
      // still-null binding absorb the action.
      spec.wildcard_equal_cols.push_back(
          {static_cast<size_t>(a.target_var), 1});
    } else {
      // Fresh variable: must be distinct from every comparable-typed binding.
      for (size_t k = 0; k < num_vars; ++k) {
        if (k == static_cast<size_t>(a.target_var)) continue;
        if (taxonomy.Comparable(pattern.var_type(static_cast<int>(k)),
                                pattern.var_type(a.target_var))) {
          spec.not_equal_cols.push_back({k, 1});
        }
      }
    }

    WICLEAN_ASSIGN_OR_RETURN(rel::Table joined,
                             rel::FullOuterJoin(acc, ra, spec));

    // Coalesce variable bindings and append this action's (u, v) attributes
    // (the paper keeps "the attributes of original action relations ... to
    // record which missing updates cause null values").
    std::vector<size_t> new_processed = processed;
    new_processed.push_back(ai);
    rel::Table next(AccWidth(pattern, new_processed.size()));
    const size_t lhs_width = acc.num_columns();
    std::vector<rel::Cell> row(next.num_columns());
    for (size_t r = 0; r < joined.num_rows(); ++r) {
      const rel::Cell u = joined.column(lhs_width).CellAt(r);
      const rel::Cell v = joined.column(lhs_width + 1).CellAt(r);
      for (size_t k = 0; k < num_vars; ++k) {
        rel::Cell binding = joined.column(k).CellAt(r);
        if (!binding && static_cast<int>(k) == a.source_var) binding = u;
        if (!binding && static_cast<int>(k) == a.target_var) binding = v;
        row[k] = binding;
      }
      for (size_t c = num_vars; c < lhs_width; ++c) {
        row[c] = joined.column(c).CellAt(r);
      }
      row[lhs_width] = u;
      row[lhs_width + 1] = v;
      next.AppendRow(row);
    }
    acc = std::move(next);
    processed = std::move(new_processed);
    var_known[a.target_var] = 1;
  }

  // Deduplicate rows, then split into full and partial realizations
  // (lines 10-11: "partial_r = rows that include a null value").
  const rel::Table dedup = rel::DistinctRows(acc);

  // Map action index -> its u column.
  std::vector<size_t> action_u_col(pattern.num_actions(), 0);
  for (size_t pos = 0; pos < processed.size(); ++pos) {
    action_u_col[processed[pos]] = num_vars + 2 * pos;
  }

  PartialUpdateReport report;
  report.pattern = pattern;
  report.window = window;
  for (size_t r = 0; r < dedup.num_rows(); ++r) {
    PartialRealization pr;
    pr.bindings.resize(num_vars);
    for (size_t k = 0; k < num_vars; ++k) {
      if (!dedup.column(k).IsNull(r)) {
        pr.bindings[k] = dedup.column(k).Int64At(r);
      }
    }
    for (size_t i = 0; i < pattern.num_actions(); ++i) {
      if (dedup.column(action_u_col[i]).IsNull(r)) {
        pr.missing_actions.push_back(i);
      } else {
        pr.present_actions.push_back(i);
      }
    }
    if (pr.missing_actions.empty()) {
      ++report.full_count;
      if (report.examples.size() < options.max_examples) {
        std::vector<EntityId> example;
        example.reserve(num_vars);
        for (const auto& b : pr.bindings) example.push_back(*b);
        report.examples.push_back(std::move(example));
      }
    } else {
      report.partials.push_back(std::move(pr));
    }
  }
  return report;
}

PartialUpdateDetector::PartialUpdateDetector(const EntityRegistry* registry,
                                             const RevisionStore* store,
                                             PartialDetectorOptions options)
    : registry_(registry), store_(store), options_(options) {}

Result<PartialUpdateReport> PartialUpdateDetector::Detect(
    const Pattern& pattern, const TimeWindow& window) const {
  // Lines 1-2: ingest (reduced, abstracted) revision histories of the entity
  // types appearing in the pattern.
  ActionIndex index(registry_, store_, window, options_.max_abstraction_lift);
  for (TypeId t : pattern.DistinctVarTypes()) {
    index.AddEntities(registry_->EntitiesOfType(t));
  }

  auto realizations = [&](size_t i) -> const rel::Table* {
    const AbstractAction& a = pattern.actions()[i];
    AbstractActionKey key{a.op, pattern.var_type(a.source_var), a.relation,
                          pattern.var_type(a.target_var)};
    auto it = index.entries().find(key.Encode());
    return it == index.entries().end() ? nullptr : &it->second.realizations;
  };
  return DetectPartialsFromRealizations(pattern, window,
                                        registry_->taxonomy(), realizations,
                                        options_);
}

}  // namespace wiclean
