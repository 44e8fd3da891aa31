#include "core/realization_join.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/hash.h"
#include "core/action_index.h"
#include "relational/join_hash_table.h"
#include "relational/ops.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

namespace {

constexpr uint64_t kHashSeed = 1469598103934665603ULL;  // FNV-1a offset basis

Status ValidateRealizationInputs(const rel::Table& left,
                                 const rel::Table& right,
                                 const RealizationJoinSpec& spec) {
  if (left.num_columns() != spec.num_left_vars + 2) {
    return Status::InvalidArgument(
        "left realization table width != num_left_vars + 2");
  }
  if (right.num_columns() != kActionRealizationColumns) {
    return Status::InvalidArgument(
        "action realization table must be (u, v, t)");
  }
  if (spec.glue_source_col >= spec.num_left_vars) {
    return Status::InvalidArgument("glue_source_col out of range");
  }
  if (spec.glue_target_col >= static_cast<int>(spec.num_left_vars)) {
    return Status::InvalidArgument("glue_target_col out of range");
  }
  for (size_t c : spec.distinct_from_target) {
    if (c >= spec.num_left_vars) {
      return Status::InvalidArgument("distinct_from_target column out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Result<rel::Table> JoinRealizations(const rel::Table& left,
                                    const rel::Table& right,
                                    const RealizationJoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateRealizationInputs(left, right, spec));
  const size_t n = spec.num_left_vars;
  const bool fresh = spec.glue_target_col < 0;
  const bool dedup_on = spec.dedup_keep_tightest;
  const size_t out_vars = n + (fresh ? 1 : 0);
  WICLEAN_CHECK(left.num_rows() < rel::kNoRow &&
                right.num_rows() < rel::kNoRow);

  // One combined key hash per row on each side (columnar, contiguous).
  std::vector<size_t> lkeys = {spec.glue_source_col};
  std::vector<size_t> rkeys = {0};
  if (!fresh) {
    lkeys.push_back(static_cast<size_t>(spec.glue_target_col));
    rkeys.push_back(1);
  }
  std::vector<uint64_t> lhash, rhash;
  rel::HashRowsForKeys(left, lkeys, &lhash, nullptr);
  rel::HashRowsForKeys(right, rkeys, &rhash, nullptr);
  rel::JoinHashTable build;
  build.Build(rhash.data(), nullptr, right.num_rows());

  // Raw column pointers: every per-candidate test below is array indexing.
  std::vector<const int64_t*> lvar(n);
  for (size_t c = 0; c < n; ++c) lvar[c] = left.column(c).int64_data().data();
  const int64_t* lt_min = left.column(n).int64_data().data();
  const int64_t* lt_max = left.column(n + 1).int64_data().data();
  const int64_t* ru = right.column(0).int64_data().data();
  const int64_t* rv = right.column(1).int64_data().data();
  const int64_t* rt = right.column(2).int64_data().data();
  const int64_t* lglue_src = lvar[spec.glue_source_col];
  const int64_t* lglue_tgt =
      fresh ? nullptr : lvar[static_cast<size_t>(spec.glue_target_col)];

  // Representative (left row, right row) per output row and its current
  // best span. Dedup replaces spans in place, never the representative rows
  // (the variable assignment is identical by definition).
  std::vector<uint32_t> lrows, rrows;
  std::vector<int64_t> tmins, tmaxs;
  rel::JoinHashTable dedup;
  if (dedup_on) dedup.ResetForInsert(left.num_rows());

  // One probe candidate: verify the equi-join keys (64-bit hashes can
  // collide), recompute the span, prune, and dedup-keep-tightest.
  auto process = [&](size_t l, uint32_t r) {
    if (ru[r] != lglue_src[l]) return;
    if (!fresh && rv[r] != lglue_tgt[l]) return;
    if (fresh) {
      for (size_t c : spec.distinct_from_target) {
        if (lvar[c][l] == rv[r]) return;
      }
    }
    // Fused span recompute + prune.
    const int64_t t = rt[r];
    const int64_t tmin = std::min(lt_min[l], t);
    const int64_t tmax = std::max(lt_max[l], t);
    if (tmax - tmin > spec.max_span) return;

    if (dedup_on) {
      uint64_t h = kHashSeed;
      for (size_t c = 0; c < n; ++c) {
        h = HashCombine(h, rel::MixInt64(lvar[c][l]));
      }
      if (fresh) h = HashCombine(h, rel::MixInt64(rv[r]));
      for (uint32_t o = dedup.Probe(h); o != rel::kNoRow; o = dedup.Next(o)) {
        const uint32_t ol = lrows[o];
        bool same = true;
        for (size_t c = 0; c < n; ++c) {
          if (lvar[c][ol] != lvar[c][l]) {
            same = false;
            break;
          }
        }
        if (same && fresh && rv[rrows[o]] != rv[r]) same = false;
        if (same) {
          // Keep the tightest witness; ties keep the earlier candidate.
          if (tmax - tmin < tmaxs[o] - tmins[o]) {
            tmins[o] = tmin;
            tmaxs[o] = tmax;
          }
          return;
        }
      }
      WICLEAN_CHECK(lrows.size() < rel::kNoRow);
      dedup.Insert(h, static_cast<uint32_t>(lrows.size()));
    }
    lrows.push_back(static_cast<uint32_t>(l));
    rrows.push_back(r);
    tmins.push_back(tmin);
    tmaxs.push_back(tmax);
  };

  // Candidates arrive in (ascending left row, ascending right row) order:
  // batching changes only when bucket loads are issued, never the order.
  uint32_t heads[rel::kProbeBatchWidth];
  const size_t nleft = left.num_rows();
  for (size_t l = 0; l < nleft; l += rel::kProbeBatchWidth) {
    const size_t batch = std::min(rel::kProbeBatchWidth, nleft - l);
    build.ProbeBatch(&lhash[l], batch, heads);
    for (size_t i = 0; i < batch; ++i) {
      for (uint32_t r = heads[i]; r != rel::kNoRow; r = build.Next(r)) {
        process(l + i, r);
      }
    }
  }

  // Bulk columnar assembly: gather the variable columns through the
  // representative rows, then the spans in one append each.
  std::vector<rel::Column> cols(out_vars + 2);
  for (size_t c = 0; c < n; ++c) cols[c].AppendGather(left.column(c), lrows);
  if (fresh) cols[n].AppendGather(right.column(1), rrows);
  cols[out_vars].AppendInt64Bulk(tmins);
  cols[out_vars + 1].AppendInt64Bulk(tmaxs);
  return rel::Table::FromColumns(std::move(cols));
}

Result<rel::Table> NestedLoopJoinRealizations(const rel::Table& left,
                                              const rel::Table& right,
                                              const RealizationJoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateRealizationInputs(left, right, spec));
  const size_t n = spec.num_left_vars;
  const bool fresh = spec.glue_target_col < 0;
  const size_t out_vars = n + (fresh ? 1 : 0);
  rel::JoinSpec join;
  join.equal_cols.push_back({spec.glue_source_col, 0});  // pattern var = u
  if (fresh) {
    for (size_t k : spec.distinct_from_target) {
      join.not_equal_cols.push_back({k, 1});
    }
  } else {
    join.equal_cols.push_back({static_cast<size_t>(spec.glue_target_col), 1});
  }
  WICLEAN_ASSIGN_OR_RETURN(rel::Table joined,
                           rel::NestedLoopJoin(left, right, join));

  // Joined layout: v0..v(n-1), tmin, tmax, u, v, t.
  rel::Table out(out_vars + 2);
  std::vector<int64_t> row(out_vars + 2);
  for (size_t r = 0; r < joined.num_rows(); ++r) {
    const int64_t t = joined.column(n + 4).Int64At(r);
    const int64_t tmin = std::min(joined.column(n).Int64At(r), t);
    const int64_t tmax = std::max(joined.column(n + 1).Int64At(r), t);
    if (tmax - tmin > spec.max_span) continue;
    for (size_t c = 0; c < n; ++c) row[c] = joined.column(c).Int64At(r);
    if (fresh) row[n] = joined.column(n + 3).Int64At(r);  // v
    row[out_vars] = tmin;
    row[out_vars + 1] = tmax;
    out.AppendInt64Row(row);
  }
  if (spec.dedup_keep_tightest) return DedupKeepTightest(out, out_vars);
  return out;
}

rel::Table DedupKeepTightest(const rel::Table& input, size_t num_vars) {
  WICLEAN_CHECK(input.num_columns() == num_vars + 2);
  WICLEAN_CHECK(input.num_rows() < rel::kNoRow);
  const size_t nrows = input.num_rows();

  std::vector<const int64_t*> vcol(num_vars);
  std::vector<size_t> var_cols(num_vars);
  for (size_t c = 0; c < num_vars; ++c) {
    vcol[c] = input.column(c).int64_data().data();
    var_cols[c] = c;
  }
  const int64_t* in_tmin = input.column(num_vars).int64_data().data();
  const int64_t* in_tmax = input.column(num_vars + 1).int64_data().data();

  std::vector<uint64_t> hashes;
  rel::HashRowsForKeys(input, var_cols, &hashes, nullptr);

  // rep[o] = input row whose variable assignment output row o represents;
  // spans track the tightest witness seen for that assignment. The first
  // occurrence becomes the representative, later ones only tighten the span
  // (strictly-less; ties keep the earlier witness).
  std::vector<uint32_t> rep;
  std::vector<int64_t> tmins, tmaxs;
  rel::JoinHashTable table;
  table.ResetForInsert(nrows);
  for (size_t r = 0; r < nrows; ++r) {
    const uint64_t h = hashes[r];
    bool found = false;
    for (uint32_t o = table.Probe(h); o != rel::kNoRow && !found;
         o = table.Next(o)) {
      const uint32_t pr = rep[o];
      bool same = true;
      for (size_t c = 0; c < num_vars; ++c) {
        if (vcol[c][pr] != vcol[c][r]) {
          same = false;
          break;
        }
      }
      if (!same) continue;
      found = true;
      if (in_tmax[r] - in_tmin[r] < tmaxs[o] - tmins[o]) {
        tmins[o] = in_tmin[r];
        tmaxs[o] = in_tmax[r];
      }
    }
    if (found) continue;
    table.Insert(h, static_cast<uint32_t>(rep.size()));
    rep.push_back(static_cast<uint32_t>(r));
    tmins.push_back(in_tmin[r]);
    tmaxs.push_back(in_tmax[r]);
  }

  std::vector<rel::Column> cols(num_vars + 2);
  for (size_t c = 0; c < num_vars; ++c) {
    cols[c].AppendGather(input.column(c), rep);
  }
  cols[num_vars].AppendInt64Bulk(tmins);
  cols[num_vars + 1].AppendInt64Bulk(tmaxs);
  return rel::Table::FromColumns(std::move(cols));
}

// The old miner dedup, byte-for-byte: row materialization plus an
// unordered_map hash chain. Kept only as the differential-testing oracle; do
// not optimize it.
rel::Table ReferenceDedupKeepTightest(const rel::Table& input,
                                      size_t num_vars) {
  const size_t width = num_vars + 2;
  std::vector<std::vector<int64_t>> rows;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
  rows.reserve(input.num_rows());
  std::vector<int64_t> row(width);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    for (size_t c = 0; c < width; ++c) row[c] = input.column(c).Int64At(r);
    uint64_t h = 1469598103934665603ULL;
    for (size_t c = 0; c < num_vars; ++c) {
      uint64_t x = static_cast<uint64_t>(row[c]);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = HashCombine(h, x ^ (x >> 31));
    }
    bool matched = false;
    for (size_t o : by_hash[h]) {
      if (!std::equal(rows[o].begin(), rows[o].begin() + num_vars,
                      row.begin())) {
        continue;
      }
      matched = true;
      int64_t old_span = rows[o][num_vars + 1] - rows[o][num_vars];
      int64_t new_span = row[num_vars + 1] - row[num_vars];
      if (new_span < old_span) rows[o] = row;
      break;
    }
    if (!matched) {
      by_hash[h].push_back(rows.size());
      rows.push_back(row);
    }
  }
  rel::Table out(input.num_columns());
  for (const std::vector<int64_t>& kept : rows) out.AppendInt64Row(kept);
  return out;
}

}  // namespace wiclean
