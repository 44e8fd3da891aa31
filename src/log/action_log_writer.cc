#include "log/action_log_writer.h"

#include <utility>

#include "common/timer.h"
#include "common/wire.h"
#include "log/action_log_codec.h"

namespace wiclean {

namespace {

Status StreamWriteError(uint64_t offset) {
  return Status::Internal("action log write failed at offset " +
                          std::to_string(offset));
}

}  // namespace

ActionLogWriter::ActionLogWriter(std::ostream* out,
                                 ActionLogWriterOptions options)
    : out_(out), options_(options) {
  Timer timer;
  std::string header(kActionLogMagic, sizeof(kActionLogMagic));
  AppendU32(&header, kActionLogVersion);
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  offset_ = header.size();
  if (!out_->good()) status_ = StreamWriteError(0);
  write_seconds_ += timer.ElapsedSeconds();
}

Status ActionLogWriter::Append(PageActions&& batch) {
  WICLEAN_RETURN_IF_ERROR(status_);
  if (finished_) {
    return Status::Internal("ActionLogWriter::Append after Finish");
  }
  if (batch.actions.empty()) return Status::OK();
  Timer timer;
  pending_.insert(pending_.end(),
                  std::make_move_iterator(batch.actions.begin()),
                  std::make_move_iterator(batch.actions.end()));
  Status status = pending_.size() >= options_.target_block_actions
                      ? FlushBlock()
                      : Status::OK();
  write_seconds_ += timer.ElapsedSeconds();
  if (!status.ok()) status_ = status;
  return status;
}

Status ActionLogWriter::FlushBlock() {
  if (pending_.empty()) return Status::OK();
  std::string payload;
  BlockMeta meta =
      EncodeBlockPayload(pending_, &dictionary_, &dictionary_ids_, &payload);
  meta.offset = offset_;
  std::string section;
  section.reserve(kSectionHeaderSize + payload.size());
  AppendSection(&section, kTagBlock, payload);
  out_->write(section.data(), static_cast<std::streamsize>(section.size()));
  if (!out_->good()) return StreamWriteError(offset_);
  offset_ += section.size();
  index_.total_actions += meta.action_count;
  index_.blocks.push_back(meta);
  pending_.clear();
  return Status::OK();
}

Status ActionLogWriter::Finish() {
  WICLEAN_RETURN_IF_ERROR(status_);
  if (finished_) {
    return Status::Internal("ActionLogWriter::Finish called twice");
  }
  finished_ = true;
  Timer timer;
  Status status = FlushBlock();
  if (status.ok()) {
    index_.relations = dictionary_;
    std::string payload;
    EncodeIndexPayload(index_, &payload);
    const uint64_t index_offset = offset_;
    std::string tail;
    tail.reserve(kSectionHeaderSize + payload.size() + kActionLogTrailerSize);
    AppendSection(&tail, kTagIndex, payload);
    AppendU64(&tail, index_offset);
    tail.append(kActionLogTrailerMagic, sizeof(kActionLogTrailerMagic));
    out_->write(tail.data(), static_cast<std::streamsize>(tail.size()));
    out_->flush();
    if (!out_->good()) status = StreamWriteError(offset_);
    offset_ += tail.size();
  }
  write_seconds_ += timer.ElapsedSeconds();
  if (!status.ok()) status_ = status;
  return status;
}

}  // namespace wiclean
