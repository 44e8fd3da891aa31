#ifndef WICLEAN_COMMON_WIRE_H_
#define WICLEAN_COMMON_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/status.h"

namespace wiclean {

/// The byte-level codec of the repo's two durable binary artifacts, the WCPS
/// pattern snapshot (serve/pattern_store.h) and the WCAL action log
/// (log/action_log_format.h). Both formats are built from these primitives
/// only:
///
///   - fixed-width integers are little-endian, composed byte by byte, so the
///     bytes do not depend on the host and nothing is memcpy'd into structs;
///     an f64 is its IEEE-754 bit pattern as a u64;
///   - varints are LEB128 (7 value bits per byte, high bit = continuation)
///     and canonical: the writer never pads, the reader rejects padding;
///     signed values are zigzag-mapped first;
///   - strings carry a u64 length (WCPS) or a varint length (WCAL);
///   - a section is `u32 tag · u64 payload size · u32 CRC-32(payload) ·
///     payload`.
///
/// Writers append to a std::string and cannot fail. ByteReader is the one
/// decoder of untrusted bytes: every Read* is bounds-checked and fails with
/// DataLoss instead of touching bytes that are not there.

/// Framing overhead of one section: tag + payload size + payload CRC.
inline constexpr size_t kSectionHeaderSize = 4 + 8 + 4;

namespace wire_internal {

template <typename T>
void AppendLittleEndian(std::string* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

}  // namespace wire_internal

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  wire_internal::AppendLittleEndian(out, v);
}

inline void AppendU64(std::string* out, uint64_t v) {
  wire_internal::AppendLittleEndian(out, v);
}

inline void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

inline void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Maps signed to unsigned keeping small magnitudes small, so deltas of
/// either sign stay one varint byte.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// u64-length-prefixed string.
inline void AppendString(std::string* out, std::string_view s) {
  AppendU64(out, s.size());
  out->append(s.data(), s.size());
}

/// Varint-length-prefixed string.
inline void AppendVarintString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s.data(), s.size());
}

/// Appends one framed section: tag, payload size, CRC-32 of the payload,
/// payload.
inline void AppendSection(std::string* out, uint32_t tag,
                          std::string_view payload) {
  AppendU32(out, tag);
  AppendU64(out, payload.size());
  AppendU32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

/// Bounds-checked sequential reader over an immutable byte span. Once a
/// Read* fails, the caller propagates the error and reads nothing further.
/// Lengths and counts read here are untrusted: each is checked against the
/// bytes actually present before anything proportional to it is allocated.
class ByteReader {
 public:
  /// `format` names the artifact in error messages ("snapshot", "action
  /// log"); it must outlive the reader (pass a string literal).
  ByteReader(std::string_view bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  [[nodiscard]] Status ReadU8(uint8_t* v) WC_UNTRUSTED {
    return ReadLittleEndian(v, "u8");
  }

  [[nodiscard]] Status ReadU32(uint32_t* v) WC_UNTRUSTED {
    return ReadLittleEndian(v, "u32");
  }

  [[nodiscard]] Status ReadU64(uint64_t* v) WC_UNTRUSTED {
    return ReadLittleEndian(v, "u64");
  }

  [[nodiscard]] Status ReadI64(int64_t* v) WC_UNTRUSTED {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&raw));
    *v = static_cast<int64_t>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadF64(double* v) WC_UNTRUSTED {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&raw));
    *v = std::bit_cast<double>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadVarint(uint64_t* v) WC_UNTRUSTED {
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (AtEnd()) return Truncated("varint");
      uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical padding like 0x80 0x00 — the writer never
        // emits it, so accepting it would let distinct bytes decode equal.
        if (byte == 0 && shift != 0) return Malformed("non-canonical varint");
        *v = out;
        return Status::OK();
      }
    }
    return Malformed("varint longer than 10 bytes");
  }

  /// Views the next `size` bytes (zero-copy into the reader's bytes).
  [[nodiscard]] Status ReadSpan(size_t size, std::string_view* v)
      WC_UNTRUSTED WC_BORROWED_VIEW {
    if (size > remaining()) return Truncated("byte span");
    *v = bytes_.substr(pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// u64-length-prefixed string.
  [[nodiscard]] Status ReadString(std::string* v) WC_UNTRUSTED {
    uint64_t size = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&size));
    return ReadStringPayload(size, v);
  }

  /// Varint-length-prefixed string.
  [[nodiscard]] Status ReadVarintString(std::string* v) WC_UNTRUSTED {
    uint64_t size = 0;
    WICLEAN_RETURN_IF_ERROR(ReadVarint(&size));
    return ReadStringPayload(size, v);
  }

  /// Reads one framed section, which must carry `tag`: checks the declared
  /// size against the bytes left and the payload against its CRC-32, then
  /// views the payload (zero-copy into the reader's bytes).
  [[nodiscard]] Status ReadSection(uint32_t tag, std::string_view* payload)
      WC_UNTRUSTED WC_BORROWED_VIEW {
    if (remaining() < kSectionHeaderSize) return Truncated("section header");
    uint32_t read_tag = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU32(&read_tag));
    if (read_tag != tag) return UnexpectedTag(read_tag);
    WICLEAN_RETURN_IF_ERROR(ReadU64(&size));
    WICLEAN_RETURN_IF_ERROR(ReadU32(&crc));
    if (size > remaining()) return Malformed("section overruns the file");
    WICLEAN_RETURN_IF_ERROR(ReadSpan(static_cast<size_t>(size), payload));
    if (Crc32(*payload) != crc) return Malformed("section CRC mismatch");
    return Status::OK();
  }

 private:
  template <typename T>
  [[nodiscard]] Status ReadLittleEndian(T* v, const char* what) WC_UNTRUSTED {
    if (remaining() < sizeof(T)) return Truncated(what);
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    *v = out;
    return Status::OK();
  }

  [[nodiscard]] Status ReadStringPayload(uint64_t size, std::string* v)
      WC_UNTRUSTED {
    if (size > remaining()) return Truncated("string payload");
    v->assign(bytes_.data() + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::OK();
  }

  // Error paths, out of line (wire.cc) so the inline success paths stay
  // small.
  Status Truncated(const char* what) const;
  Status Malformed(const char* what) const;
  Status UnexpectedTag(uint32_t tag) const;

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* format_;
};

}  // namespace wiclean

#endif  // WICLEAN_COMMON_WIRE_H_
