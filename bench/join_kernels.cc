// Timed differential harness for the columnar join kernels: the flat
// open-addressing HashJoin vs the preserved multimap ReferenceHashJoin, the
// fused JoinRealizations operator vs the unfused join + span-prune + dedup
// pipeline it replaced, and the flat DedupKeepTightest vs its row-
// materializing reference. Every timed pair is also checked for agreement, so
// a regression in either speed or semantics shows up here.
//
// Usage: join_kernels [rows] [output.json]
//   rows         single size to run (default: 1000, 10000, 50000)
//   output.json  result file (default: BENCH_join.json in the CWD)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/action_index.h"
#include "core/realization_join.h"
#include "relational/join_hash_table.h"
#include "relational/ops.h"
#include "relational/reference_join.h"
#include "relational/table.h"

namespace wiclean {
namespace {

namespace rel = ::wiclean::relational;

constexpr size_t kNumVars = 3;
constexpr int64_t kHorizon = 100000;
constexpr int kReps = 7;
rel::Table RandomRealizationTable(Rng* rng, size_t rows, int64_t domain) {
  rel::Table t(kNumVars + 2);
  std::vector<int64_t> row(kNumVars + 2);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < kNumVars; ++c) {
      row[c] = static_cast<int64_t>(rng->NextBelow(domain));
    }
    int64_t t0 = static_cast<int64_t>(rng->NextBelow(kHorizon));
    row[kNumVars] = t0;
    row[kNumVars + 1] = t0 + static_cast<int64_t>(rng->NextBelow(kHorizon));
    t.AppendInt64Row(row);
  }
  return t;
}

rel::Table RandomActionTable(Rng* rng, size_t rows, int64_t domain) {
  rel::Table t(kActionRealizationColumns);
  for (size_t r = 0; r < rows; ++r) {
    t.AppendInt64Row({static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(kHorizon))});
  }
  return t;
}

// Best-of-kReps wall time for one kernel invocation.
template <typename Fn>
double MeasureBest(Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

std::vector<std::vector<rel::Cell>> SortedRowList(const rel::Table& t) {
  std::vector<std::vector<rel::Cell>> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r].push_back(t.column(c).CellAt(r));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Order-sensitive streaming digest for positional identity checks. A digest
// instead of a materialized row list keeps a second copy of every output
// from sitting on the heap while later lanes are being timed.
uint64_t TableDigest(const rel::Table& t) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const rel::Column& col = t.column(c);
      h = HashCombine(h, col.IsNull(r) ? rel::kNullCellHash
                                       : rel::MixInt64(col.Int64At(r)));
    }
  }
  return h;
}

// Candidate order differs between the two join engines, so dedup tie-breaks
// (same span width, different [tmin, tmax]) can keep different
// representatives. The order-invariant signature is (variables, span width).
std::vector<std::string> SortedAssignmentWidths(const rel::Table& t) {
  const size_t n = t.num_columns() - 2;
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < n; ++c) {
      key += std::to_string(t.column(c).Int64At(r)) + "|";
    }
    key += std::to_string(t.column(n + 1).Int64At(r) - t.column(n).Int64At(r));
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-check failed: %s\n", what);
    std::exit(1);
  }
}

rel::Table MustTable(Result<rel::Table> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

struct SizeResult {
  size_t rows = 0;
  size_t join_output_rows = 0;
  size_t fused_output_rows = 0;
  double hash_join_columnar_seconds = 0;
  double hash_join_reference_seconds = 0;
  double fused_seconds = 0;
  double unfused_seconds = 0;
  double dedup_flat_seconds = 0;
  double dedup_reference_seconds = 0;
};

// The unfused pipeline exactly as the miner ran it before the fused operator:
// hash join, row-at-a-time span recompute + prune, then dedup.
rel::Table UnfusedPipeline(const rel::Table& left, const rel::Table& right,
                           const rel::JoinSpec& spec,
                           const RealizationJoinSpec& rspec,
                           bool reference_kernels) {
  rel::Table joined =
      reference_kernels
          ? MustTable(rel::ReferenceHashJoin(left, right, spec), "ref join")
          : MustTable(rel::HashJoin(left, right, spec), "hash join");
  const size_t n = rspec.num_left_vars;
  rel::Table realization(n + 3);
  std::vector<int64_t> row(n + 3);
  for (size_t r = 0; r < joined.num_rows(); ++r) {
    int64_t t = joined.column(n + 4).Int64At(r);
    int64_t tmin = std::min(joined.column(n).Int64At(r), t);
    int64_t tmax = std::max(joined.column(n + 1).Int64At(r), t);
    if (tmax - tmin > rspec.max_span) continue;
    for (size_t c = 0; c < n; ++c) row[c] = joined.column(c).Int64At(r);
    row[n] = joined.column(n + 3).Int64At(r);  // fresh target binding
    row[n + 1] = tmin;
    row[n + 2] = tmax;
    realization.AppendInt64Row(row);
  }
  return ReferenceDedupKeepTightest(realization, n + 1);
}

SizeResult RunSize(size_t rows) {
  SizeResult out;
  out.rows = rows;

  // Join fan-out of ~4 matches per probe, like a mid-expansion realization
  // table meeting a popular abstract action.
  const int64_t domain = std::max<int64_t>(4, static_cast<int64_t>(rows) / 4);
  Rng rng(911 + rows);
  rel::Table left = RandomRealizationTable(&rng, rows, domain);
  rel::Table right = RandomActionTable(&rng, rows, domain);

  // Fresh-target extension with distinctness on every variable, span pruning,
  // and dedup — the full fused operator.
  RealizationJoinSpec rspec;
  rspec.num_left_vars = kNumVars;
  rspec.glue_source_col = 0;
  rspec.glue_target_col = -1;
  for (size_t k = 0; k < kNumVars; ++k) rspec.distinct_from_target.push_back(k);
  rspec.max_span = kHorizon;
  rspec.dedup_keep_tightest = true;

  rel::JoinSpec spec;
  spec.equal_cols.push_back({rspec.glue_source_col, 0});
  for (size_t k : rspec.distinct_from_target) spec.not_equal_cols.push_back({k, 1});

  // Raw equi-join kernel: columnar vs multimap reference, identical bags.
  rel::Table columnar_join = MustTable(rel::HashJoin(left, right, spec), "hash join");
  rel::Table reference_join =
      MustTable(rel::ReferenceHashJoin(left, right, spec), "ref join");
  Require(SortedRowList(columnar_join) == SortedRowList(reference_join),
          "HashJoin vs ReferenceHashJoin bag equality");
  out.join_output_rows = columnar_join.num_rows();
  out.hash_join_columnar_seconds = MeasureBest([&] {
    rel::Table t = MustTable(rel::HashJoin(left, right, spec), "hash join");
  });
  out.hash_join_reference_seconds = MeasureBest([&] {
    rel::Table t = MustTable(rel::ReferenceHashJoin(left, right, spec), "ref join");
  });

  // Fused operator vs the old materialize-everything pipeline.
  rel::Table fused = MustTable(JoinRealizations(left, right, rspec), "fused");
  rel::Table unfused =
      UnfusedPipeline(left, right, spec, rspec, /*reference_kernels=*/true);
  Require(SortedAssignmentWidths(fused) == SortedAssignmentWidths(unfused),
          "fused vs unfused assignment/span agreement");
  // Over the columnar HashJoin the unfused pipeline sees candidates in the
  // fused operator's order, so the two outputs agree row for row.
  Require(TableDigest(fused) ==
              TableDigest(UnfusedPipeline(left, right, spec, rspec,
                                          /*reference_kernels=*/false)),
          "fused vs columnar unfused positional identity");
  out.fused_output_rows = fused.num_rows();
  out.fused_seconds = MeasureBest([&] {
    rel::Table t = MustTable(JoinRealizations(left, right, rspec), "fused");
  });
  out.unfused_seconds = MeasureBest([&] {
    rel::Table t =
        UnfusedPipeline(left, right, spec, rspec, /*reference_kernels=*/true);
  });

  // Dedup kernel in isolation, on a duplicate-heavy realization table.
  rel::Table dups = RandomRealizationTable(
      &rng, rows, std::max<int64_t>(4, static_cast<int64_t>(rows) / 64));
  rel::Table flat_dedup = DedupKeepTightest(dups, kNumVars);
  rel::Table ref_dedup = ReferenceDedupKeepTightest(dups, kNumVars);
  Require(SortedRowList(flat_dedup) == SortedRowList(ref_dedup),
          "flat vs reference dedup equality");
  out.dedup_flat_seconds =
      MeasureBest([&] { rel::Table t = DedupKeepTightest(dups, kNumVars); });
  out.dedup_reference_seconds = MeasureBest(
      [&] { rel::Table t = ReferenceDedupKeepTightest(dups, kNumVars); });
  return out;
}

double Speedup(double reference, double optimized) {
  return optimized > 0 ? reference / optimized : 0;
}

void WriteJson(const std::vector<SizeResult>& results, const char* path) {
  std::ofstream file(path);
  JsonWriter w(&file, /*pretty=*/true);
  w.BeginObject();
  w.Key("bench");
  w.String("join_kernels");
  w.Key("num_vars");
  w.Int(static_cast<int64_t>(kNumVars));
  w.Key("reps");
  w.Int(kReps);
  w.Key("sizes");
  w.BeginArray();
  for (const SizeResult& r : results) {
    w.BeginObject();
    w.Key("rows");
    w.Int(static_cast<int64_t>(r.rows));
    w.Key("join_output_rows");
    w.Int(static_cast<int64_t>(r.join_output_rows));
    w.Key("fused_output_rows");
    w.Int(static_cast<int64_t>(r.fused_output_rows));
    w.Key("hash_join_columnar_seconds");
    w.Number(r.hash_join_columnar_seconds);
    w.Key("hash_join_reference_seconds");
    w.Number(r.hash_join_reference_seconds);
    w.Key("hash_join_speedup");
    w.Number(Speedup(r.hash_join_reference_seconds, r.hash_join_columnar_seconds));
    w.Key("fused_seconds");
    w.Number(r.fused_seconds);
    w.Key("unfused_seconds");
    w.Number(r.unfused_seconds);
    w.Key("fused_speedup");
    w.Number(Speedup(r.unfused_seconds, r.fused_seconds));
    w.Key("dedup_flat_seconds");
    w.Number(r.dedup_flat_seconds);
    w.Key("dedup_reference_seconds");
    w.Number(r.dedup_reference_seconds);
    w.Key("dedup_speedup");
    w.Number(Speedup(r.dedup_reference_seconds, r.dedup_flat_seconds));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  file << "\n";
}

int Main(int argc, char** argv) {
  std::vector<size_t> sizes = {1000, 10000, 50000};
  if (argc > 1) sizes = {bench::SizeArg(argc, argv, 10000)};
  const char* out_path = argc > 2 ? argv[2] : "BENCH_join.json";

  std::vector<SizeResult> results;
  for (size_t rows : sizes) {
    SizeResult r = RunSize(rows);
    std::printf(
        "rows=%zu join: columnar %.4fs vs reference %.4fs (%.1fx) | "
        "fused %.4fs vs unfused %.4fs (%.1fx) | dedup %.4fs vs %.4fs (%.1fx)\n",
        r.rows, r.hash_join_columnar_seconds, r.hash_join_reference_seconds,
        Speedup(r.hash_join_reference_seconds, r.hash_join_columnar_seconds),
        r.fused_seconds, r.unfused_seconds,
        Speedup(r.unfused_seconds, r.fused_seconds), r.dedup_flat_seconds,
        r.dedup_reference_seconds,
        Speedup(r.dedup_reference_seconds, r.dedup_flat_seconds));
    results.push_back(r);
  }
  WriteJson(results, out_path);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace wiclean

int main(int argc, char** argv) { return wiclean::Main(argc, argv); }
