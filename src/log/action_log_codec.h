#ifndef WICLEAN_LOG_ACTION_LOG_CODEC_H_
#define WICLEAN_LOG_ACTION_LOG_CODEC_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "log/action_log_format.h"
#include "revision/action.h"

namespace wiclean {

/// WCAL block and index payloads, over the shared wire primitives
/// (common/wire.h). Encoding is infallible; every decode path is a
/// bounds-checked [[nodiscard]] Status walk over untrusted bytes — lengths
/// and counts are validated against the bytes actually present before
/// anything proportional to them is allocated.

/// Encodes one block payload for `actions` (must be non-empty), interning
/// relations not yet in `ids` by appending them to *dictionary and
/// assigning the next id. Returns the block's metadata with offset = 0
/// (the writer fills in the real file offset when framing the section).
BlockMeta EncodeBlockPayload(const std::vector<Action>& actions,
                             std::vector<std::string>* dictionary,
                             std::unordered_map<std::string, uint32_t>* ids,
                             std::string* out);

/// Decodes a (CRC-verified) block payload, appending its actions to *out.
/// `relations` is the full dictionary from the index; the block's own
/// dictionary delta is cross-checked against it, so a block whose interning
/// disagrees with the index fails cleanly instead of mislabeling actions.
/// When `meta` is non-null, the block's span/count header must match it.
[[nodiscard]] Status DecodeBlockPayload(std::string_view payload,
                                        const std::vector<std::string>& relations,
                                        const BlockMeta* meta,
                                        std::vector<Action>* out) WC_UNTRUSTED;

/// Encodes the index payload (block table + totals + full dictionary).
void EncodeIndexPayload(const ActionLogIndex& index, std::string* out);

/// Decodes a (CRC-verified) index payload.
[[nodiscard]] Status DecodeIndexPayload(std::string_view payload,
                                        ActionLogIndex* index) WC_UNTRUSTED;

}  // namespace wiclean

#endif  // WICLEAN_LOG_ACTION_LOG_CODEC_H_
