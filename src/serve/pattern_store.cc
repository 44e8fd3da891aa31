#include "serve/pattern_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/wire.h"

namespace wiclean {

namespace {

// ---------------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------------

constexpr char kMagic[4] = {'W', 'C', 'P', 'S'};
constexpr uint32_t kTagProvenance = 0x564f5250;  // "PROV" little-endian
constexpr uint32_t kTagPatterns = 0x53544150;    // "PATS"
// A valid file has exactly these two sections, provenance first; anything
// else is corruption.
constexpr uint32_t kExpectedSections = 2;

// ---------------------------------------------------------------------------
// Section payloads.
// ---------------------------------------------------------------------------

void EncodeProvenance(const SnapshotProvenance& p, std::string* out) {
  AppendString(out, p.corpus_id);
  AppendString(out, p.tool);
  AppendI64(out, p.created_unix);
  AppendF64(out, p.frequency_threshold);
  AppendU32(out, static_cast<uint32_t>(p.max_abstraction_lift));
  AppendU64(out, p.max_pattern_actions);
  AppendU8(out, p.mine_relative ? 1 : 0);
}

Status DecodeProvenance(ByteReader* r, SnapshotProvenance* p) {
  WICLEAN_RETURN_IF_ERROR(r->ReadString(&p->corpus_id));
  WICLEAN_RETURN_IF_ERROR(r->ReadString(&p->tool));
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&p->created_unix));
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&p->frequency_threshold));
  uint32_t lift = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&lift));
  if (lift > 64) {
    return Status::DataLoss("snapshot provenance: implausible abstraction "
                            "lift " + std::to_string(lift));
  }
  p->max_abstraction_lift = static_cast<int32_t>(lift);
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&p->max_pattern_actions));
  uint8_t rel = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU8(&rel));
  if (rel > 1) {
    return Status::DataLoss("snapshot provenance: boolean field out of range");
  }
  p->mine_relative = rel == 1;
  return Status::OK();
}

Status EncodePattern(const StoredPattern& sp, const TypeTaxonomy& taxonomy,
                     std::string* out) {
  const Pattern& p = sp.pattern;
  AppendU32(out, static_cast<uint32_t>(p.num_vars()));
  for (size_t v = 0; v < p.num_vars(); ++v) {
    TypeId t = p.var_type(static_cast<int>(v));
    if (!taxonomy.IsValid(t)) {
      return Status::InvalidArgument(
          "pattern references unknown type id " + std::to_string(t));
    }
    AppendString(out, taxonomy.Name(t));
    AppendI64(out, p.var_binding(static_cast<int>(v)));
  }
  AppendU32(out, static_cast<uint32_t>(p.source_var()));
  AppendU32(out, static_cast<uint32_t>(p.num_actions()));
  for (const AbstractAction& a : p.actions()) {
    AppendU8(out, a.op == EditOp::kAdd ? 0 : 1);
    AppendU32(out, static_cast<uint32_t>(a.source_var));
    AppendString(out, a.relation);
    AppendU32(out, static_cast<uint32_t>(a.target_var));
  }
  AppendI64(out, sp.window.begin);
  AppendI64(out, sp.window.end);
  AppendF64(out, sp.frequency);
  AppendU64(out, sp.support);
  AppendF64(out, sp.threshold);
  return Status::OK();
}

Status DecodePattern(ByteReader* r, const TypeTaxonomy& taxonomy,
                     StoredPattern* out) {
  Pattern p;
  uint32_t num_vars = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&num_vars));
  // Each variable occupies >= 16 bytes, so a count beyond remaining/16 is
  // corrupt; checking up front avoids looping on a wild count.
  if (num_vars == 0 || num_vars > r->remaining() / 16) {
    return Status::DataLoss("snapshot pattern: variable count out of range");
  }
  std::vector<EntityId> bindings;
  for (uint32_t v = 0; v < num_vars; ++v) {
    std::string type_name;
    WICLEAN_RETURN_IF_ERROR(r->ReadString(&type_name));
    Result<TypeId> type = taxonomy.Find(type_name);
    if (!type.ok()) {
      return Status::DataLoss("snapshot pattern references unknown type '" +
                              type_name + "'");
    }
    p.AddVar(*type);
    int64_t binding = 0;
    WICLEAN_RETURN_IF_ERROR(r->ReadI64(&binding));
    if (binding < kInvalidEntityId) {
      return Status::DataLoss("snapshot pattern: negative entity binding");
    }
    bindings.push_back(binding);
  }
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (bindings[v] == kInvalidEntityId) continue;
    WICLEAN_RETURN_IF_ERROR(p.BindVar(static_cast<int>(v), bindings[v]));
  }
  uint32_t source_var = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&source_var));
  if (source_var >= num_vars) {
    return Status::DataLoss("snapshot pattern: source variable out of range");
  }
  WICLEAN_RETURN_IF_ERROR(p.SetSourceVar(static_cast<int>(source_var)));
  uint32_t num_actions = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&num_actions));
  if (num_actions == 0 || num_actions > r->remaining() / 17) {
    return Status::DataLoss("snapshot pattern: action count out of range");
  }
  for (uint32_t a = 0; a < num_actions; ++a) {
    uint8_t op = 0;
    uint32_t src = 0;
    uint32_t tgt = 0;
    std::string relation;
    WICLEAN_RETURN_IF_ERROR(r->ReadU8(&op));
    if (op > 1) return Status::DataLoss("snapshot pattern: bad edit op");
    WICLEAN_RETURN_IF_ERROR(r->ReadU32(&src));
    WICLEAN_RETURN_IF_ERROR(r->ReadString(&relation));
    WICLEAN_RETURN_IF_ERROR(r->ReadU32(&tgt));
    if (src >= num_vars || tgt >= num_vars) {
      return Status::DataLoss("snapshot pattern: action variable out of range");
    }
    WICLEAN_RETURN_IF_ERROR(p.AddAction(
        op == 0 ? EditOp::kAdd : EditOp::kRemove, static_cast<int>(src),
        relation, static_cast<int>(tgt)));
  }
  if (!p.IsConnected()) {
    return Status::DataLoss("snapshot pattern is not connected");
  }
  out->pattern = std::move(p);
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&out->window.begin));
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&out->window.end));
  if (out->window.begin >= out->window.end) {
    return Status::DataLoss("snapshot pattern: empty time window");
  }
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&out->frequency));
  if (!(out->frequency >= 0.0 && out->frequency <= 1.0)) {
    return Status::DataLoss("snapshot pattern: frequency outside [0, 1]");
  }
  uint64_t support = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&support));
  out->support = static_cast<size_t>(support);
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&out->threshold));
  if (!(out->threshold >= 0.0 && out->threshold <= 1.0)) {
    return Status::DataLoss("snapshot pattern: threshold outside [0, 1]");
  }
  return Status::OK();
}

Status EncodePatterns(const std::vector<StoredPattern>& patterns,
                      const TypeTaxonomy& taxonomy, std::string* out) {
  AppendU64(out, patterns.size());
  for (const StoredPattern& sp : patterns) {
    WICLEAN_RETURN_IF_ERROR(EncodePattern(sp, taxonomy, out));
  }
  return Status::OK();
}

Status DecodePatterns(ByteReader* r, const TypeTaxonomy& taxonomy,
                      std::vector<StoredPattern>* out) {
  uint64_t count = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&count));
  // Each pattern occupies >= 60 bytes; the count is untrusted, so bound it by
  // the bytes present instead of pre-reserving from it.
  if (count > r->remaining() / 60) {
    return Status::DataLoss("snapshot: pattern count out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StoredPattern sp;
    WICLEAN_RETURN_IF_ERROR(DecodePattern(r, taxonomy, &sp));
    out->push_back(std::move(sp));
  }
  if (!r->AtEnd()) {
    return Status::DataLoss("snapshot: trailing bytes after pattern section");
  }
  return Status::OK();
}

}  // namespace

Status EncodeSnapshot(const PatternSnapshot& snapshot,
                      const TypeTaxonomy& taxonomy, std::string* out) {
  out->clear();
  out->append(kMagic, sizeof(kMagic));
  AppendU32(out, kSnapshotFormatVersion);
  AppendU32(out, kExpectedSections);

  std::string provenance;
  EncodeProvenance(snapshot.provenance, &provenance);
  AppendSection(out, kTagProvenance, provenance);

  std::string patterns;
  WICLEAN_RETURN_IF_ERROR(
      EncodePatterns(snapshot.patterns, taxonomy, &patterns));
  AppendSection(out, kTagPatterns, patterns);
  return Status::OK();
}

Result<PatternSnapshot> DecodeSnapshot(std::string_view bytes,
                                       const TypeTaxonomy& taxonomy) {
  ByteReader reader(bytes, "snapshot");
  std::string_view magic;
  WICLEAN_RETURN_IF_ERROR(reader.ReadSpan(sizeof(kMagic), &magic));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::DataLoss("not a WCPS pattern snapshot (bad magic)");
  }
  uint32_t version = 0;
  WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(version));
  }
  uint32_t section_count = 0;
  WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&section_count));
  if (section_count != kExpectedSections) {
    return Status::DataLoss("snapshot: unexpected section count " +
                            std::to_string(section_count));
  }

  PatternSnapshot snapshot;
  std::string_view payload;
  WICLEAN_RETURN_IF_ERROR(reader.ReadSection(kTagProvenance, &payload));
  ByteReader provenance(payload, "snapshot");
  WICLEAN_RETURN_IF_ERROR(
      DecodeProvenance(&provenance, &snapshot.provenance));
  if (!provenance.AtEnd()) {
    return Status::DataLoss("snapshot: trailing provenance bytes");
  }
  WICLEAN_RETURN_IF_ERROR(reader.ReadSection(kTagPatterns, &payload));
  ByteReader patterns(payload, "snapshot");
  WICLEAN_RETURN_IF_ERROR(
      DecodePatterns(&patterns, taxonomy, &snapshot.patterns));
  if (!reader.AtEnd()) {
    return Status::DataLoss("snapshot: trailing bytes after last section");
  }
  return snapshot;
}

Status SaveSnapshotFile(const PatternSnapshot& snapshot,
                        const TypeTaxonomy& taxonomy,
                        const std::string& path) {
  std::string bytes;
  WICLEAN_RETURN_IF_ERROR(EncodeSnapshot(snapshot, taxonomy, &bytes));

  // Atomic, durable publish: write everything to `path + ".tmp"`, fsync,
  // rename over the final name, then fsync the parent directory. A crash
  // mid-write leaves only the temp file behind — a serving reload watching
  // `path` can never observe a half-written snapshot, and a stale temp from
  // an earlier crash is simply overwritten. The directory fsync makes the
  // rename itself durable: without it, power loss just after publish can
  // resurface the old file (or none) even though rename already returned.
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) {
    return Status::Internal("cannot create snapshot temp file " + tmp_path);
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::Internal("failed writing snapshot temp file " +
                              tmp_path);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed syncing snapshot temp file " + tmp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed closing snapshot temp file " + tmp_path);
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed publishing snapshot file " + path);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir_path =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::Internal("cannot open snapshot directory " + dir_path +
                            " to sync the publish");
  }
  const int synced = ::fsync(dir_fd);
  ::close(dir_fd);
  if (synced != 0) {
    return Status::Internal("failed syncing snapshot directory " + dir_path);
  }
  return Status::OK();
}

Result<PatternSnapshot> LoadSnapshotFile(const std::string& path,
                                         const TypeTaxonomy& taxonomy) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open snapshot file " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  if (file.bad()) {
    return Status::Internal("failed reading snapshot file " + path);
  }
  return DecodeSnapshot(contents.str(), taxonomy);
}

}  // namespace wiclean
