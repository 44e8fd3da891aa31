#include "relational/ops.h"

#include <string>

#include "relational/join_hash_table.h"

namespace wiclean::relational {
namespace {

// SQL equality of two cells (false when either is null). Used by the
// nested-loop oracle, which deliberately stays row-at-a-time.
bool CellsSqlEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return false;
  return a.Int64At(ra) == b.Int64At(rb);
}

Status ValidateSpec(const Table& left, const Table& right,
                    const JoinSpec& spec) {
  auto check_pair = [&](const std::pair<size_t, size_t>& p,
                        const char* kind) -> Status {
    if (p.first >= left.num_columns() || p.second >= right.num_columns()) {
      return Status::InvalidArgument(std::string(kind) +
                                     " column index out of range");
    }
    return Status::OK();
  };
  for (const auto& p : spec.equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "equality"));
  }
  for (const auto& p : spec.not_equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "inequality"));
  }
  for (const auto& p : spec.wildcard_equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "wildcard equality"));
  }
  return Status::OK();
}

// True iff the row pair satisfies the whole JoinSpec. Row-at-a-time; kept
// for the nested-loop oracle (PM−join) only — the hash path uses
// PairPredicate below.
bool PairMatches(const Table& left, size_t lrow, const Table& right,
                 size_t rrow, const JoinSpec& spec) {
  for (const auto& [lc, rc] : spec.equal_cols) {
    if (!CellsSqlEqual(left.column(lc), lrow, right.column(rc), rrow)) {
      return false;
    }
  }
  for (const auto& [lc, rc] : spec.wildcard_equal_cols) {
    const Column& a = left.column(lc);
    const Column& b = right.column(rc);
    if (a.IsNull(lrow) || b.IsNull(rrow)) continue;  // wildcard: null matches
    if (!CellsSqlEqual(a, lrow, b, rrow)) return false;
  }
  for (const auto& [lc, rc] : spec.not_equal_cols) {
    const Column& a = left.column(lc);
    const Column& b = right.column(rc);
    if (a.IsNull(lrow) || b.IsNull(rrow)) {
      // Unknown comparison: SQL semantics reject the pair; the null-tolerant
      // mode (Algorithm 3) lets "not provably equal" pass.
      if (!spec.null_inequality_passes) return false;
      continue;
    }
    if (CellsSqlEqual(a, lrow, b, rrow)) return false;
  }
  return true;
}

// Columnar verifier for hash-probe candidates: resolves column payload and
// validity pointers once per join, so per-candidate work is raw array
// compares.
class PairPredicate {
 public:
  PairPredicate(const Table& left, const Table& right, const JoinSpec& spec)
      : null_inequality_passes_(spec.null_inequality_passes) {
    auto add = [&](std::vector<ColPair>* out,
                   const std::pair<size_t, size_t>& p) {
      const Column& lc = left.column(p.first);
      const Column& rc = right.column(p.second);
      out->push_back(ColPair{lc.int64_data().data(), rc.int64_data().data(),
                             lc.validity().data(), rc.validity().data()});
    };
    for (const auto& p : spec.equal_cols) add(&equal_, p);
    for (const auto& p : spec.wildcard_equal_cols) add(&wildcard_, p);
    for (const auto& p : spec.not_equal_cols) add(&not_equal_, p);
  }

  bool operator()(size_t l, size_t r) const {
    // Equality columns: both cells are non-null here — null-keyed rows never
    // enter the build side and are skipped on probe.
    for (const ColPair& p : equal_) {
      if (p.li[l] != p.ri[r]) return false;
    }
    for (const ColPair& p : wildcard_) {
      if (!p.lv[l] || !p.rv[r]) continue;  // wildcard: null matches
      if (p.li[l] != p.ri[r]) return false;
    }
    for (const ColPair& p : not_equal_) {
      if (!p.lv[l] || !p.rv[r]) {
        if (!null_inequality_passes_) return false;
        continue;
      }
      if (p.li[l] == p.ri[r]) return false;
    }
    return true;
  }

  /// Prefetches the right-side cells operator() will read for row `r` —
  /// issued for whole probe batches so the (random-access) column loads of
  /// several candidate rows are in flight before their predicates run.
  void PrefetchRight(size_t r) const {
    for (const ColPair& p : equal_) WC_PREFETCH_READ(&p.ri[r]);
    for (const ColPair& p : wildcard_) {
      WC_PREFETCH_READ(&p.rv[r]);
      WC_PREFETCH_READ(&p.ri[r]);
    }
    for (const ColPair& p : not_equal_) {
      WC_PREFETCH_READ(&p.rv[r]);
      WC_PREFETCH_READ(&p.ri[r]);
    }
  }

 private:
  struct ColPair {
    const int64_t* li = nullptr;
    const int64_t* ri = nullptr;
    const uint8_t* lv = nullptr;
    const uint8_t* rv = nullptr;
  };

  std::vector<ColPair> equal_;
  std::vector<ColPair> wildcard_;
  std::vector<ColPair> not_equal_;
  bool null_inequality_passes_;
};

// Hash-join core shared by inner and full-outer variants: flat
// open-addressing build side, vectorized key extraction, bulk gathered
// output. Matches for one left row are emitted in ascending right-row order,
// so output is exactly NestedLoopJoin's (left-major) order.
struct HashJoinResult {
  Table output;
  std::vector<uint8_t> left_matched;
  std::vector<uint8_t> right_matched;
};

// Probes every left row against `build` and appends matches in (ascending
// left row, ascending right row) order: valid keys are gathered
// kProbeBatchWidth at a time, their buckets resolved with a prefetched
// two-pass ProbeBatch, then their chains walked.
void ProbeAll(const JoinHashTable& build, const std::vector<uint64_t>& lhash,
              const std::vector<uint8_t>& lvalid, const PairPredicate& matches,
              std::vector<uint32_t>* lrows, std::vector<uint32_t>* rrows) {
  uint32_t batch_rows[kProbeBatchWidth];
  uint64_t batch_hash[kProbeBatchWidth];
  uint32_t batch_head[kProbeBatchWidth];
  const size_t end = lhash.size();
  size_t l = 0;
  while (l < end) {
    // Gather the next kProbeBatchWidth valid probe keys (null-keyed rows
    // never match), preserving ascending left-row order.
    size_t n = 0;
    while (l < end && n < kProbeBatchWidth) {
      if (lvalid[l]) {
        batch_rows[n] = static_cast<uint32_t>(l);
        batch_hash[n] = lhash[l];
        ++n;
      }
      ++l;
    }
    if (n == 0) break;
    build.ProbeBatch(batch_hash, n, batch_head);
    // Payload prefetch: the chain heads' predicate cells and link entries for
    // the whole batch go in flight together, before any chain walk
    // dereferences them.
    for (size_t i = 0; i < n; ++i) {
      if (batch_head[i] != kNoRow) {
        build.PrefetchNext(batch_head[i]);
        matches.PrefetchRight(batch_head[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t lrow = batch_rows[i];
      uint32_t r = batch_head[i];
      while (r != kNoRow) {
        const uint32_t next = build.Next(r);
        // One-step-ahead prefetch down the chain overlaps the next
        // candidate's cell loads with this candidate's predicate.
        if (next != kNoRow) matches.PrefetchRight(next);
        if (matches(lrow, r)) {
          lrows->push_back(static_cast<uint32_t>(lrow));
          rrows->push_back(r);
        }
        r = next;
      }
    }
  }
}

Result<HashJoinResult> HashJoinCore(const Table& left, const Table& right,
                                    const JoinSpec& spec, bool track_matches) {
  WICLEAN_RETURN_IF_ERROR(ValidateSpec(left, right, spec));
  if (spec.equal_cols.empty()) {
    return Status::InvalidArgument(
        "HashJoin requires at least one equality column pair");
  }

  std::vector<size_t> lkeys, rkeys;
  for (const auto& [lc, rc] : spec.equal_cols) {
    lkeys.push_back(lc);
    rkeys.push_back(rc);
  }

  // Build on the right input: one combined hash per row, computed columnar,
  // then a flat table mapping hash -> ascending row chain. Rows with a null
  // key can never match and are skipped at build/probe time.
  std::vector<uint64_t> rhash, lhash;
  std::vector<uint8_t> rvalid, lvalid;
  HashRowsForKeys(right, rkeys, &rhash, &rvalid);
  HashRowsForKeys(left, lkeys, &lhash, &lvalid);
  JoinHashTable build;
  build.Build(rhash.data(), rvalid.data(), right.num_rows());

  PairPredicate matches(left, right, spec);
  std::vector<uint32_t> lrows, rrows;
  ProbeAll(build, lhash, lvalid, matches, &lrows, &rrows);

  HashJoinResult result{Table(left.num_columns() + right.num_columns()), {},
                        {}};
  result.output.AppendConcatGather(left, lrows, right, rrows);
  if (track_matches) {
    result.left_matched.assign(left.num_rows(), 0);
    result.right_matched.assign(right.num_rows(), 0);
    for (uint32_t l : lrows) result.left_matched[l] = 1;
    for (uint32_t r : rrows) result.right_matched[r] = 1;
  }
  return result;
}

// Indices in [0, n) whose matched flag is 0, for bulk outer-join padding.
std::vector<uint32_t> UnmatchedRows(const std::vector<uint8_t>& matched) {
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (!matched[i]) rows.push_back(static_cast<uint32_t>(i));
  }
  return rows;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec) {
  WICLEAN_ASSIGN_OR_RETURN(HashJoinResult core,
                           HashJoinCore(left, right, spec, false));
  return std::move(core.output);
}

Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const JoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateSpec(left, right, spec));
  Table out(left.num_columns() + right.num_columns());
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (PairMatches(left, l, right, r, spec)) {
        out.AppendConcatRows(left, l, right, r);
      }
    }
  }
  return out;
}

Result<Table> FullOuterJoin(const Table& left, const Table& right,
                            const JoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateSpec(left, right, spec));

  Table out(left.num_columns() + right.num_columns());
  std::vector<uint8_t> left_matched(left.num_rows(), 0);
  std::vector<uint8_t> right_matched(right.num_rows(), 0);

  if (!spec.equal_cols.empty() && !spec.prefer_nested_loop) {
    WICLEAN_ASSIGN_OR_RETURN(HashJoinResult core,
                             HashJoinCore(left, right, spec, true));
    out = std::move(core.output);
    left_matched = std::move(core.left_matched);
    right_matched = std::move(core.right_matched);
  } else {
    // Pure theta join: exhaustive pairing (the Algorithm 3 ablation
    // baseline), with bulk gathered output.
    std::vector<uint32_t> lrows, rrows;
    for (size_t l = 0; l < left.num_rows(); ++l) {
      for (size_t r = 0; r < right.num_rows(); ++r) {
        if (PairMatches(left, l, right, r, spec)) {
          lrows.push_back(static_cast<uint32_t>(l));
          rrows.push_back(static_cast<uint32_t>(r));
          left_matched[l] = 1;
          right_matched[r] = 1;
        }
      }
    }
    out.AppendConcatGather(left, lrows, right, rrows);
  }

  // Pad unmatched left rows with nulls on the right, then unmatched right
  // rows with nulls on the left — bulk gathers, no per-cell boxing.
  out.AppendGatherPadded(left, UnmatchedRows(left_matched), 0);
  out.AppendGatherPadded(right, UnmatchedRows(right_matched),
                         left.num_columns());
  return out;
}

Table DistinctRows(const Table& input) {
  std::vector<size_t> cols(input.num_columns());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;

  // Group rows by hash over every column (nulls hash as a fixed sentinel so
  // null == null for dedup), then keep each row iff no earlier
  // structurally-equal row exists in its hash chain. Chains iterate in
  // ascending row order, so "first occurrence" semantics are preserved.
  std::vector<uint64_t> hashes;
  HashRowsForKeys(input, cols, &hashes, nullptr);
  JoinHashTable groups;
  groups.Build(hashes.data(), nullptr, input.num_rows());

  std::vector<uint32_t> keep;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    bool duplicate = false;
    for (uint32_t o = groups.Probe(hashes[r]); o != kNoRow && o < r;
         o = groups.Next(o)) {
      // Cell equality is structural here: null == null.
      bool same = true;
      for (size_t c : cols) {
        if (input.column(c).CellAt(o) != input.column(c).CellAt(r)) {
          same = false;
          break;
        }
      }
      if (same) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) keep.push_back(static_cast<uint32_t>(r));
  }

  std::vector<Column> out_cols(cols.size());
  for (size_t c : cols) out_cols[c].AppendGather(input.column(c), keep);
  return Table::FromColumns(std::move(out_cols));
}

}  // namespace wiclean::relational
