#ifndef WICLEAN_CORE_PARTIAL_H_
#define WICLEAN_CORE_PARTIAL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// One partial realization of a pattern in a window — a probable interlink
/// error: some of the pattern's actions happened, others did not, and the
/// window has closed.
struct PartialRealization {
  /// Per pattern variable: the bound entity, or nullopt if no performed
  /// action binds it.
  std::vector<std::optional<EntityId>> bindings;
  /// Indices (into Pattern::actions()) of the actions that were NOT
  /// performed — the edits the editor apparently forgot.
  std::vector<size_t> missing_actions;
  /// Indices of the actions that were performed.
  std::vector<size_t> present_actions;

  /// Signature for dedup/matching: pattern-independent rendering of bindings
  /// and missing actions.
  std::string Signature() const;
};

/// Output of one Detect call.
struct PartialUpdateReport {
  Pattern pattern;
  TimeWindow window;
  std::vector<PartialRealization> partials;
  /// Number of complete realizations found (context for the editor: how many
  /// peers completed the pattern in this window).
  size_t full_count = 0;
  /// Up to options.max_examples complete realizations, as per-variable entity
  /// bindings — the "examples of other full patterns" shown to editors (§5).
  std::vector<std::vector<EntityId>> examples;
};

struct PartialDetectorOptions {
  size_t max_examples = 3;
  /// When false, the outer-join chain runs on exhaustive pairing instead of
  /// hash joins — the Algorithm 3 counterpart of the PM vs PM−join ablation.
  bool use_hash_join = true;
  /// Must match the abstraction lift used during mining so the action
  /// realizations line up with the pattern's variable types.
  int max_abstraction_lift = 2;
};

/// The join-chain core of Algorithm 3, shared between the batch
/// PartialUpdateDetector and the serving layer's incremental OnlineDetector
/// (serve/online_detector.h): chains full outer joins over the per-action
/// realization tables supplied by `realizations`, coalesces variable
/// bindings, deduplicates, and splits the result into full and partial
/// realizations. `realizations(i)` returns the (u, v, t) table of
/// concrete realizations of pattern action i (only u and v are
/// read), or nullptr when the action has none; the returned pointer must
/// stay valid for the duration of the call. Value bindings of the pattern
/// are applied here, so callers provide unfiltered tables.
///
/// Sharing this fold is what makes the online detector's differential
/// identity with the batch sweep structural rather than coincidental: both
/// paths differ only in how the realization tables are produced.
[[nodiscard]] Result<PartialUpdateReport> DetectPartialsFromRealizations(
    const Pattern& pattern, const TimeWindow& window,
    const TypeTaxonomy& taxonomy,
    const std::function<const relational::Table*(size_t action_index)>&
        realizations,
    const PartialDetectorOptions& options);

/// Algorithm 3: identifies partial updates of a pattern in a window by
/// chaining *full outer joins* over the pattern's action realizations in a
/// connectivity-respecting traversal order, then selecting result rows that
/// contain nulls. Action attributes are kept alongside the (coalesced)
/// variable bindings so every null can be attributed to the specific missing
/// update.
class PartialUpdateDetector {
 public:
  /// `registry` and `store` must outlive the detector.
  PartialUpdateDetector(const EntityRegistry* registry,
                        const RevisionStore* store,
                        PartialDetectorOptions options = {});

  /// Finds partial (and counts full) realizations of `pattern` within
  /// `window`. The pattern must be connected and have at least one action.
  [[nodiscard]] Result<PartialUpdateReport> Detect(const Pattern& pattern,
                                     const TimeWindow& window) const;

 private:
  const EntityRegistry* registry_;
  const RevisionStore* store_;
  PartialDetectorOptions options_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_PARTIAL_H_
