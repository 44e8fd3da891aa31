#include "log/action_log_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/wire.h"
#include "log/action_log_codec.h"

namespace wiclean {

namespace {

/// Reads the framed section with `tag` that starts at byte `offset`.
Status ReadSectionAt(std::string_view bytes, uint64_t offset, uint32_t tag,
                     std::string_view* payload) WC_UNTRUSTED WC_BORROWED_VIEW {
  if (offset > bytes.size()) {
    return Status::DataLoss("action log: section offset outside the file");
  }
  ByteReader r(bytes.substr(static_cast<size_t>(offset)), "action log");
  return r.ReadSection(tag, payload);
}

}  // namespace

MmapFile::~MmapFile() {
  if (data_ != nullptr) munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) munmap(data_, size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    const std::string detail = std::strerror(errno);
    close(fd);
    return Status::Internal("cannot stat " + path + ": " + detail);
  }
  MmapFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ == 0) {
    close(fd);
    return file;  // empty span; mmap(0) would be EINVAL
  }
  void* data = mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps its own reference
  if (data == MAP_FAILED) {
    return Status::Internal("cannot mmap " + path + ": " +
                            std::strerror(errno));
  }
  file.data_ = data;
  return file;
}

Result<ActionLogReader> ActionLogReader::OpenFile(const std::string& path) {
  WICLEAN_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  ActionLogReader reader;
  reader.file_ = std::move(file);
  reader.bytes_ = reader.file_.bytes();
  WICLEAN_RETURN_IF_ERROR(reader.Validate());
  return reader;
}

Result<ActionLogReader> ActionLogReader::FromBytes(std::string_view bytes) {
  ActionLogReader reader;
  reader.bytes_ = bytes;
  WICLEAN_RETURN_IF_ERROR(reader.Validate());
  return reader;
}

Status ActionLogReader::Validate() {
  if (bytes_.size() < kActionLogHeaderSize + kActionLogTrailerSize) {
    return Status::DataLoss("action log: file shorter than header + trailer");
  }
  ByteReader header(bytes_, "action log");
  std::string_view magic;
  uint32_t version = 0;
  WICLEAN_RETURN_IF_ERROR(header.ReadSpan(sizeof(kActionLogMagic), &magic));
  if (magic != std::string_view(kActionLogMagic, sizeof(kActionLogMagic))) {
    return Status::DataLoss("action log: bad magic (not a WCAL file)");
  }
  WICLEAN_RETURN_IF_ERROR(header.ReadU32(&version));
  if (version != kActionLogVersion) {
    return Status::DataLoss("action log: unsupported version " +
                            std::to_string(version));
  }

  const size_t trailer_at = bytes_.size() - kActionLogTrailerSize;
  ByteReader trailer(bytes_.substr(trailer_at), "action log");
  uint64_t index_offset = 0;
  std::string_view trailer_magic;
  WICLEAN_RETURN_IF_ERROR(trailer.ReadU64(&index_offset));
  WICLEAN_RETURN_IF_ERROR(
      trailer.ReadSpan(sizeof(kActionLogTrailerMagic), &trailer_magic));
  if (trailer_magic != std::string_view(kActionLogTrailerMagic,
                                        sizeof(kActionLogTrailerMagic))) {
    return Status::DataLoss(
        "action log: bad trailer magic (truncated or unfinished file)");
  }
  if (index_offset < kActionLogHeaderSize || index_offset >= trailer_at) {
    return Status::DataLoss("action log: index offset outside the file");
  }

  std::string_view index_payload;
  WICLEAN_RETURN_IF_ERROR(ReadSectionAt(bytes_.substr(0, trailer_at),
                                        index_offset, kTagIndex,
                                        &index_payload));
  if (index_offset + kSectionHeaderSize + index_payload.size() != trailer_at) {
    return Status::DataLoss(
        "action log: stray bytes between the index and the trailer");
  }
  WICLEAN_RETURN_IF_ERROR(DecodeIndexPayload(index_payload, &index_));
  // The block table must fit in front of the index.
  for (const BlockMeta& meta : index_.blocks) {
    if (meta.offset + kSectionHeaderSize > index_offset) {
      return Status::DataLoss(
          "action log: block offset collides with the index");
    }
  }
  return Status::OK();
}

Status ActionLogReader::DecodeBlock(size_t i, std::vector<Action>* out) const {
  if (i >= index_.blocks.size()) {
    return Status::InvalidArgument("action log: no block " +
                                   std::to_string(i));
  }
  const BlockMeta& meta = index_.blocks[i];
  std::string_view payload;
  WICLEAN_RETURN_IF_ERROR(
      ReadSectionAt(bytes_, meta.offset, kTagBlock, &payload));
  return DecodeBlockPayload(payload, index_.relations, &meta, out);
}

Result<std::string_view> ActionLogReader::BlockRawBytes(size_t i) const {
  if (i >= index_.blocks.size()) {
    return Status::InvalidArgument("action log: no block " +
                                   std::to_string(i));
  }
  const BlockMeta& meta = index_.blocks[i];
  if (meta.offset > bytes_.size() ||
      bytes_.size() - meta.offset < kSectionHeaderSize) {
    return Status::DataLoss("action log: block section outside the file");
  }
  // Recompute the framed extent from the declared payload size, clamped to
  // the file — good enough for the quarantine channel even when the size
  // field itself is damaged.
  ByteReader header(bytes_.substr(meta.offset + 4), "action log");
  uint64_t size = 0;
  WICLEAN_RETURN_IF_ERROR(header.ReadU64(&size));
  const uint64_t max_span = bytes_.size() - meta.offset;
  const uint64_t span =
      std::min<uint64_t>(kSectionHeaderSize + size, max_span);
  return bytes_.substr(meta.offset, static_cast<size_t>(span));
}

}  // namespace wiclean
