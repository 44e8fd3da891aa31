#include "common/wire.h"

namespace wiclean {

Status ByteReader::Truncated(const char* what) const {
  return Status::DataLoss(std::string(format_) + " truncated reading " +
                          what);
}

Status ByteReader::Malformed(const char* what) const {
  return Status::DataLoss(std::string(format_) + ": " + what);
}

Status ByteReader::UnexpectedTag(uint32_t tag) const {
  return Status::DataLoss(std::string(format_) +
                          ": unexpected section tag " + std::to_string(tag));
}

}  // namespace wiclean
