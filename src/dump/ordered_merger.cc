#include "dump/ordered_merger.h"

#include <utility>

#include "common/timer.h"

namespace wiclean {

OrderedMerger::OrderedMerger(ActionSink* sink, QuarantineSink* quarantine,
                             AccumulateFn accumulate)
    : sink_(sink), quarantine_(quarantine), accumulate_(accumulate) {}

bool OrderedMerger::Submit(uint64_t position, PageActions batch) {
  MutexLock lock(&mu_);
  if (!first_error_.ok()) return false;
  if (position != next_position_) {
    pending_.emplace(position, std::move(batch));
    return true;
  }
  MergeLocked(std::move(batch));
  // Flush the contiguous run this batch completed.
  while (first_error_.ok() && !pending_.empty() &&
         pending_.begin()->first == next_position_) {
    auto front = pending_.begin();
    PageActions next = std::move(front->second);
    pending_.erase(front);
    MergeLocked(std::move(next));
  }
  return first_error_.ok();
}

void OrderedMerger::MergeLocked(PageActions&& batch) {
  Timer merge_timer;
  accumulate_(batch, &stats_);
  Status status = Status::OK();
  for (const QuarantineRecord& record : batch.quarantine) {
    status = quarantine_->Write(record);
    if (!status.ok()) break;  // losing the quarantine channel is fatal
  }
  if (status.ok() && !batch.skipped) status = sink_->Append(std::move(batch));
  merge_seconds_ += merge_timer.ElapsedSeconds();
  ++next_position_;
  if (!status.ok()) first_error_ = std::move(status);
}

void OrderedMerger::Fail(Status status) {
  MutexLock lock(&mu_);
  if (first_error_.ok()) first_error_ = std::move(status);
}

Result<IngestStats> OrderedMerger::Finish(double* merge_seconds) {
  MutexLock lock(&mu_);
  if (!first_error_.ok()) return first_error_;
  *merge_seconds = merge_seconds_;
  return stats_;
}

}  // namespace wiclean
