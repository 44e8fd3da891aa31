#include "log/replay.h"

#include <atomic>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dump/ordered_merger.h"

namespace wiclean {
namespace {

/// True when block `meta` survives the selective-ingestion filter.
bool Selected(const BlockMeta& meta, const ReplayOptions& options) {
  if (!options.selective) return true;
  return meta.max_subject >= options.min_subject &&
         meta.min_subject <= options.max_subject;
}

/// Builds the skip batch for a block that failed CRC or decode under a skip
/// policy. The batch travels the same ordered merge as real ones, so skip
/// counters and quarantine records land in block order at any thread count.
PageActions MakeBlockSkip(const ActionLogReader& reader, size_t block,
                          const Status& error, bool quarantining) {
  PageActions batch;
  batch.sequence = block;
  batch.skipped = true;
  batch.skipped_by_reason[static_cast<size_t>(
      SkipReason::kBlockCorruption)] = 1;
  if (quarantining) {
    QuarantineRecord record;
    record.reason = SkipReason::kBlockCorruption;
    record.sequence = block;
    record.detail = std::string(error.message());
    Result<std::string_view> raw = reader.BlockRawBytes(block);
    if (raw.ok()) {
      std::string_view bytes = raw.value();
      if (bytes.size() > kMaxQuarantineRawBytes) {
        bytes = bytes.substr(0, kMaxQuarantineRawBytes);
        record.raw_truncated = true;
      }
      record.raw.assign(bytes.data(), bytes.size());
    }
    batch.quarantine.push_back(std::move(record));
  }
  return batch;
}

/// Folds one merged batch into the replay counters (the replay analogue of
/// pipeline.cc's AccumulateStats).
void AccumulateReplayStats(const PageActions& batch, IngestStats* stats) {
  stats->quarantined += batch.quarantine.size();
  for (size_t i = 0; i < kNumSkipReasons; ++i) {
    stats->skipped_by_reason[i] += batch.skipped_by_reason[i];
  }
  if (batch.skipped) {
    ++stats->log_blocks_skipped;
    return;
  }
  ++stats->log_blocks;
  stats->actions += batch.actions.size();
}

}  // namespace

Result<IngestStats> ReplayActionLog(const ActionLogReader& reader,
                                    ActionSink* sink,
                                    const ReplayOptions& options) {
  if (options.on_error == ErrorPolicy::kQuarantine &&
      options.quarantine == nullptr) {
    return Status::InvalidArgument(
        "ErrorPolicy::kQuarantine requires a QuarantineSink");
  }
  if (options.selective && options.min_subject > options.max_subject) {
    return Status::InvalidArgument(
        "selective replay: min_subject > max_subject");
  }
  std::vector<size_t> selected;
  selected.reserve(reader.num_blocks());
  for (size_t i = 0; i < reader.num_blocks(); ++i) {
    if (Selected(reader.block(i), options)) selected.push_back(i);
  }

  const bool degraded = options.on_error != ErrorPolicy::kStrict;
  const bool quarantining = options.on_error == ErrorPolicy::kQuarantine;
  OrderedMerger merger(sink, options.quarantine, AccumulateReplayStats);
  std::atomic<int64_t> decode_nanos{0};
  // Blocks are already materialized in the mapped file, so work dispensing
  // needs no queue: each replayer pulls the next position from a counter,
  // decodes that block, and submits it. The merger's reorder buffer absorbs
  // the skew between replayers. Returns when the blocks run out or the run
  // has failed.
  std::atomic<size_t> next{0};
  auto replay_blocks = [&] {
    for (;;) {
      const size_t position = next.fetch_add(1, std::memory_order_relaxed);
      if (position >= selected.size()) return;
      const size_t block = selected[position];
      Timer decode_timer;
      PageActions batch;
      batch.sequence = block;
      batch.known_page = true;
      Status decoded = reader.DecodeBlock(block, &batch.actions);
      decode_nanos.fetch_add(
          static_cast<int64_t>(decode_timer.ElapsedSeconds() * 1e9),
          std::memory_order_relaxed);
      if (!decoded.ok()) {
        if (!degraded) {
          merger.Fail(std::move(decoded));
          return;
        }
        batch = MakeBlockSkip(reader, block, decoded, quarantining);
      }
      if (!merger.Submit(position, std::move(batch))) return;
    }
  };
  if (options.num_threads <= 1) {
    replay_blocks();
  } else {
    ThreadPool pool(options.num_threads);
    for (size_t w = 0; w < options.num_threads; ++w) {
      pool.Submit(replay_blocks);
    }
    pool.Wait();
  }

  double replay_seconds = 0.0;
  WICLEAN_ASSIGN_OR_RETURN(IngestStats stats, merger.Finish(&replay_seconds));
  stats.log_read_seconds = static_cast<double>(decode_nanos.load()) / 1e9;
  stats.log_replay_seconds = replay_seconds;
  return stats;
}

Result<IngestStats> ReplayActionLogFile(const std::string& path,
                                        RevisionStore* store,
                                        const ReplayOptions& options) {
  WICLEAN_ASSIGN_OR_RETURN(ActionLogReader reader,
                           ActionLogReader::OpenFile(path));
  RevisionStoreSink sink(store);
  return ReplayActionLog(reader, &sink, options);
}

}  // namespace wiclean
