#include "log/action_log_codec.h"

#include <algorithm>

#include "common/wire.h"

namespace wiclean {

BlockMeta EncodeBlockPayload(const std::vector<Action>& actions,
                             std::vector<std::string>* dictionary,
                             std::unordered_map<std::string, uint32_t>* ids,
                             std::string* out) {
  BlockMeta meta;
  meta.action_count = actions.size();
  meta.min_subject = actions.front().subject;
  meta.max_subject = actions.front().subject;
  for (const Action& a : actions) {
    meta.min_subject = std::min(meta.min_subject, a.subject);
    meta.max_subject = std::max(meta.max_subject, a.subject);
  }

  // Intern unseen relations; the delta is exactly the dictionary suffix
  // this block contributes.
  const uint32_t dict_base = static_cast<uint32_t>(dictionary->size());
  std::vector<uint32_t> relation_ids;
  relation_ids.reserve(actions.size());
  for (const Action& a : actions) {
    auto [it, inserted] =
        ids->emplace(a.relation, static_cast<uint32_t>(dictionary->size()));
    if (inserted) dictionary->push_back(a.relation);
    relation_ids.push_back(it->second);
  }

  AppendI64(out, meta.min_subject);
  AppendI64(out, meta.max_subject);
  AppendU32(out, static_cast<uint32_t>(actions.size()));
  AppendU32(out, dict_base);
  AppendU32(out, static_cast<uint32_t>(dictionary->size()) - dict_base);
  for (size_t i = dict_base; i < dictionary->size(); ++i) {
    AppendVarintString(out, (*dictionary)[i]);
  }

  std::vector<uint8_t> ops((actions.size() + 7) / 8, 0);
  for (size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].op == EditOp::kRemove) ops[i / 8] |= uint8_t{1} << (i % 8);
  }
  out->append(reinterpret_cast<const char*>(ops.data()), ops.size());

  EntityId prev_subject = meta.min_subject;
  for (const Action& a : actions) {
    AppendVarint(out, ZigZagEncode(a.subject - prev_subject));
    prev_subject = a.subject;
  }
  for (uint32_t id : relation_ids) AppendVarint(out, id);
  for (const Action& a : actions) AppendVarint(out, ZigZagEncode(a.object));
  Timestamp prev_time = 0;
  for (const Action& a : actions) {
    AppendVarint(out, ZigZagEncode(a.time - prev_time));
    prev_time = a.time;
  }
  return meta;
}

Status DecodeBlockPayload(std::string_view payload,
                          const std::vector<std::string>& relations,
                          const BlockMeta* meta, std::vector<Action>* out) {
  ByteReader r(payload, "action log");
  EntityId min_subject = 0;
  EntityId max_subject = 0;
  uint32_t count = 0;
  uint32_t dict_base = 0;
  uint32_t delta_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadI64(&min_subject));
  WICLEAN_RETURN_IF_ERROR(r.ReadI64(&max_subject));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&count));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&dict_base));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&delta_count));
  if (min_subject > max_subject) {
    return Status::DataLoss("action log block: inverted subject span");
  }
  if (count == 0) {
    return Status::DataLoss("action log block: empty block");
  }
  // Untrusted-count guard: every action costs at least 4 varint bytes, so a
  // count above remaining/4 cannot be satisfied — reject before reserving.
  if (count > r.remaining() / 4) {
    return Status::DataLoss("action log block: action count exceeds payload");
  }
  if (meta != nullptr &&
      (min_subject != meta->min_subject || max_subject != meta->max_subject ||
       count != meta->action_count)) {
    return Status::DataLoss(
        "action log block: header disagrees with the index entry");
  }
  // The block's interning must be a prefix-consistent view of the full
  // dictionary: its delta is exactly relations[dict_base, dict_base+delta).
  if (dict_base > relations.size() || delta_count > relations.size() ||
      static_cast<size_t>(dict_base) + delta_count > relations.size()) {
    return Status::DataLoss(
        "action log block: dictionary delta outside the index dictionary");
  }
  std::string delta;
  for (uint32_t i = 0; i < delta_count; ++i) {
    WICLEAN_RETURN_IF_ERROR(r.ReadVarintString(&delta));
    if (delta != relations[dict_base + i]) {
      return Status::DataLoss(
          "action log block: dictionary delta disagrees with the index");
    }
  }
  const uint32_t dict_end = dict_base + delta_count;

  std::string_view ops_span;
  const size_t ops_bytes = (static_cast<size_t>(count) + 7) / 8;
  WICLEAN_RETURN_IF_ERROR(r.ReadSpan(ops_bytes, &ops_span));
  const std::vector<uint8_t> ops(ops_span.begin(), ops_span.end());

  std::vector<EntityId> subjects(count);
  EntityId prev_subject = min_subject;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(r.ReadVarint(&raw));
    prev_subject += ZigZagDecode(raw);
    if (prev_subject < min_subject || prev_subject > max_subject) {
      return Status::DataLoss(
          "action log block: subject outside the declared span");
    }
    subjects[i] = prev_subject;
  }
  std::vector<uint32_t> relation_ids(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(r.ReadVarint(&raw));
    if (raw >= dict_end) {
      return Status::DataLoss(
          "action log block: relation id beyond the dictionary");
    }
    relation_ids[i] = static_cast<uint32_t>(raw);
  }
  std::vector<EntityId> objects(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(r.ReadVarint(&raw));
    objects[i] = ZigZagDecode(raw);
  }
  std::vector<Timestamp> times(count);
  Timestamp prev_time = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(r.ReadVarint(&raw));
    prev_time += ZigZagDecode(raw);
    times[i] = prev_time;
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("action log block: trailing bytes after columns");
  }

  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    Action a;
    a.op = (ops[i / 8] >> (i % 8)) & 1 ? EditOp::kRemove : EditOp::kAdd;
    a.subject = subjects[i];
    a.relation = relations[relation_ids[i]];
    a.object = objects[i];
    a.time = times[i];
    out->push_back(std::move(a));
  }
  return Status::OK();
}

void EncodeIndexPayload(const ActionLogIndex& index, std::string* out) {
  AppendU64(out, index.blocks.size());
  for (const BlockMeta& b : index.blocks) {
    AppendU64(out, b.offset);
    AppendI64(out, b.min_subject);
    AppendI64(out, b.max_subject);
    AppendU64(out, b.action_count);
  }
  AppendU64(out, index.total_actions);
  AppendU64(out, index.relations.size());
  for (const std::string& rel : index.relations) AppendVarintString(out, rel);
}

Status DecodeIndexPayload(std::string_view payload, ActionLogIndex* index) {
  ByteReader r(payload, "action log");
  uint64_t block_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&block_count));
  // Untrusted count: each entry is 32 fixed bytes.
  if (block_count > r.remaining() / 32) {
    return Status::DataLoss("action log index: block table exceeds payload");
  }
  index->blocks.clear();
  index->blocks.reserve(static_cast<size_t>(block_count));
  uint64_t running_actions = 0;
  uint64_t prev_end = kActionLogHeaderSize;
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockMeta meta;
    WICLEAN_RETURN_IF_ERROR(r.ReadU64(&meta.offset));
    WICLEAN_RETURN_IF_ERROR(r.ReadI64(&meta.min_subject));
    WICLEAN_RETURN_IF_ERROR(r.ReadI64(&meta.max_subject));
    WICLEAN_RETURN_IF_ERROR(r.ReadU64(&meta.action_count));
    if (meta.offset < prev_end) {
      return Status::DataLoss(
          "action log index: block offsets overlap or precede the header");
    }
    if (meta.min_subject > meta.max_subject || meta.action_count == 0) {
      return Status::DataLoss("action log index: implausible block entry");
    }
    prev_end = meta.offset + kSectionHeaderSize;  // payload size unknown here
    running_actions += meta.action_count;
    index->blocks.push_back(meta);
  }
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&index->total_actions));
  if (index->total_actions != running_actions) {
    return Status::DataLoss(
        "action log index: total_actions disagrees with the block table");
  }
  uint64_t relation_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&relation_count));
  // Untrusted count: a relation costs at least its 1-byte length prefix.
  if (relation_count > r.remaining()) {
    return Status::DataLoss("action log index: dictionary exceeds payload");
  }
  index->relations.clear();
  index->relations.reserve(static_cast<size_t>(relation_count));
  for (uint64_t i = 0; i < relation_count; ++i) {
    std::string rel;
    WICLEAN_RETURN_IF_ERROR(r.ReadVarintString(&rel));
    index->relations.push_back(std::move(rel));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("action log index: trailing bytes");
  }
  return Status::OK();
}

}  // namespace wiclean
