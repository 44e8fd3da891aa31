#ifndef WICLEAN_DUMP_ORDERED_MERGER_H_
#define WICLEAN_DUMP_ORDERED_MERGER_H_

#include <cstdint>
#include <map>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "dump/action_sink.h"
#include "dump/ingest.h"
#include "dump/quarantine.h"

namespace wiclean {

/// The last stage of XML ingestion (dump/pipeline.h) and WCAL replay
/// (log/replay.h): batches arrive in any order, tagged with their position
/// 0, 1, 2, ..., and leave in position order. Merging one batch means, in
/// this order: fold its counters into the run's IngestStats, write its
/// quarantine records, and — unless it is a skip batch — append it to the
/// sink. Skip batches hold their position like real ones, so counters and
/// quarantine records land in input order at any thread count.
///
/// Thread-safe. All merging happens under one lock, so the sink and the
/// quarantine sink see one caller at a time, in position order. A caller
/// that submits the next expected position merges it on its own thread; a
/// batch that arrives early waits in a reorder buffer and is merged by
/// whichever caller fills the gap in front of it.
///
/// The first error — a failed merge, or one reported through Fail — stops
/// the run: later batches are dropped unmerged and Finish returns it.
class OrderedMerger {
 public:
  /// Folds one merged batch into the run counters. Ingestion and replay
  /// count different fields, so each passes its own.
  using AccumulateFn = void (*)(const PageActions& batch, IngestStats* stats);

  /// `sink` must outlive the merger; `quarantine` must too whenever a
  /// submitted batch carries quarantine records.
  OrderedMerger(ActionSink* sink, QuarantineSink* quarantine,
                AccumulateFn accumulate);

  /// Hands over the batch at `position`. Each position in [0, n) must be
  /// submitted exactly once, by any thread. Returns false once the run has
  /// failed, and the caller should then stop producing; a batch submitted
  /// after the failure is dropped unmerged.
  bool Submit(uint64_t position, PageActions batch) WC_EXCLUDES(mu_);

  /// Records `status` as the run's error unless one is already recorded.
  void Fail(Status status) WC_EXCLUDES(mu_);

  /// The first error, or the merged counters. `merge_seconds` receives the
  /// wall time spent merging. Call once every producer has stopped.
  [[nodiscard]] Result<IngestStats> Finish(double* merge_seconds)
      WC_EXCLUDES(mu_);

 private:
  /// Merges `batch`, the one at next_position_.
  void MergeLocked(PageActions&& batch) WC_REQUIRES(mu_);

  ActionSink* const sink_;
  QuarantineSink* const quarantine_;
  const AccumulateFn accumulate_;

  Mutex mu_;
  std::map<uint64_t, PageActions> pending_ WC_GUARDED_BY(mu_);
  uint64_t next_position_ WC_GUARDED_BY(mu_) = 0;
  IngestStats stats_ WC_GUARDED_BY(mu_);
  Status first_error_ WC_GUARDED_BY(mu_);
  double merge_seconds_ WC_GUARDED_BY(mu_) = 0.0;
};

}  // namespace wiclean

#endif  // WICLEAN_DUMP_ORDERED_MERGER_H_
