#include "dump/pipeline.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/bounded_queue.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dump/ordered_merger.h"

namespace wiclean {
namespace {

/// Folds one merged batch into the ingest counters. Runs inside the ordered
/// merge, so counts are deterministic regardless of worker scheduling.
void AccumulateStats(const PageActions& batch, IngestStats* stats) {
  stats->quarantined += batch.quarantine.size();
  for (size_t i = 0; i < kNumSkipReasons; ++i) {
    stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
  }
  if (batch.skipped) {
    if (batch.region_skip) {
      ++stats->regions_skipped;
    } else {
      ++stats->pages_skipped;
    }
    return;
  }
  stats->revisions_skipped += batch.revisions_skipped;
  if (!batch.known_page) {
    ++stats->unknown_pages;
    return;
  }
  ++stats->pages;
  stats->revisions += batch.revisions;
  stats->actions += batch.actions.size();
  stats->unresolved_links += batch.unresolved_links;
}

/// Builds the skip batch for a raw input region the reader resynced past.
/// Region skips consume a sequence number like any page, so the ordered
/// merge sees them at the position where the damage sat in the dump.
PageActions MakeRegionSkip(uint64_t sequence, const Status& error,
                           ResyncInfo&& region, bool quarantining) {
  PageActions batch;
  batch.sequence = sequence;
  batch.skipped = true;
  batch.region_skip = true;
  const SkipReason reason = error.code() == StatusCode::kDataLoss
                                ? SkipReason::kTruncation
                                : SkipReason::kXmlCorruption;
  batch.skipped_by_reason[static_cast<size_t>(reason)] = 1;
  if (quarantining) {
    QuarantineRecord record;
    record.reason = reason;
    record.sequence = sequence;
    record.detail = std::string(error.message()) + " (skipped " +
                    std::to_string(region.skipped_bytes) +
                    " bytes at offset " +
                    std::to_string(region.byte_offset) + ")";
    record.raw = std::move(region.raw);
    record.raw_truncated = region.raw_truncated;
    batch.quarantine.push_back(std::move(record));
  }
  return batch;
}

/// Reader-side error handling under a skip policy: asks the source to resync
/// past the damage. Returns the skip batch to merge; sets *at_end when the
/// damage ran to end of input; or an error when the source cannot recover
/// (Unimplemented keeps the original fail-fast status).
Result<PageActions> RecoverRegion(PageSource* source, const Status& error,
                                  uint64_t sequence, bool quarantining,
                                  bool* at_end) {
  ResyncInfo region;
  Result<bool> recovered = source->Recover(&region);
  if (!recovered.ok()) {
    if (recovered.status().code() == StatusCode::kUnimplemented) return error;
    return recovered.status();
  }
  *at_end = !recovered.value();
  return MakeRegionSkip(sequence, error, std::move(region), quarantining);
}

/// One (sequence, page) unit of work handed from the reader to the parse
/// step. Reader-side region skips travel as pre-resolved batches
/// (`resolved` set), so they hold their sequence slot in the merge without
/// anything being parsed.
struct WorkItem {
  uint64_t sequence = 0;
  DumpPage page;
  bool resolved = false;
  PageActions batch;  // final batch when resolved; ignored otherwise
};

}  // namespace

Result<IngestStats> RunIngestPipeline(PageSource* source,
                                      const EntityRegistry& registry,
                                      ActionSink* sink,
                                      const IngestOptions& options) {
  if (options.on_error == ErrorPolicy::kQuarantine &&
      options.quarantine == nullptr) {
    return Status::InvalidArgument(
        "ErrorPolicy::kQuarantine requires a QuarantineSink");
  }
  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  OrderedMerger merger(sink, options.quarantine, AccumulateStats);
  std::atomic<int64_t> parse_nanos{0};

  // The per-item step at every thread count: parse the page (unless the
  // reader already resolved it) and submit the batch. Returns false once
  // the run has failed.
  auto process = [&](WorkItem&& item) {
    if (!item.resolved) {
      Timer parse_timer;
      Result<PageActions> parsed =
          ParsePageActions(item.page, item.sequence, registry, options);
      parse_nanos.fetch_add(
          static_cast<int64_t>(parse_timer.ElapsedSeconds() * 1e9),
          std::memory_order_relaxed);
      if (!parsed.ok()) {
        merger.Fail(parsed.status());
        return false;
      }
      item.batch = std::move(parsed).value();
    }
    return merger.Submit(item.sequence, std::move(item.batch));
  };

  // With N > 1 workers, items reach `process` through a bounded queue whose
  // Push blocks once the reader is queue_capacity pages ahead. A failed
  // step cancels the queue, which wakes a blocked reader and drains every
  // worker. With one thread the reader calls `process` itself.
  std::unique_ptr<BoundedQueue<WorkItem>> queue;
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    queue = std::make_unique<BoundedQueue<WorkItem>>(options.queue_capacity);
    pool = std::make_unique<ThreadPool>(options.num_threads);
    for (size_t w = 0; w < options.num_threads; ++w) {
      pool->Submit([&] {
        WorkItem item;
        while (queue->Pop(&item)) {
          if (!process(std::move(item))) {
            queue->Cancel();
            return;
          }
        }
      });
    }
  }
  auto hand_off = [&](WorkItem&& item) {
    return queue == nullptr ? process(std::move(item))
                            : queue->Push(std::move(item));
  };
  auto fail = [&](Status status) {
    merger.Fail(std::move(status));
    if (queue != nullptr) queue->Cancel();
  };

  // The reader, on the calling thread. Under a skip policy a read error is
  // downgraded to a pre-resolved region-skip item so the stream continues.
  uint64_t sequence = 0;
  double read_seconds = 0.0;
  for (;;) {
    WorkItem item;
    Timer read_timer;
    Result<bool> more = source->Next(&item.page);
    read_seconds += read_timer.ElapsedSeconds();
    if (!more.ok()) {
      if (!degraded) {
        fail(more.status());
        break;
      }
      bool at_end = false;
      Timer resync_timer;
      Result<PageActions> skip = RecoverRegion(source, more.status(),
                                               sequence, quarantining,
                                               &at_end);
      read_seconds += resync_timer.ElapsedSeconds();
      if (!skip.ok()) {
        fail(skip.status());
        break;
      }
      item.batch = std::move(skip).value();
      item.sequence = sequence++;
      item.resolved = true;
      if (!hand_off(std::move(item)) || at_end) break;
      continue;
    }
    if (!*more) break;
    item.sequence = sequence++;
    if (!hand_off(std::move(item))) break;  // the run has failed
  }
  if (queue != nullptr) {
    queue->Close();
    pool->Wait();
  }

  double merge_seconds = 0.0;
  WICLEAN_ASSIGN_OR_RETURN(IngestStats stats, merger.Finish(&merge_seconds));
  stats.read_seconds = read_seconds;
  stats.parse_seconds = static_cast<double>(parse_nanos.load()) / 1e9;
  stats.merge_seconds = merge_seconds;
  return stats;
}

}  // namespace wiclean
