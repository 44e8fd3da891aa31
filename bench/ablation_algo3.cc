// Ablation: Algorithm 3's outer-join engine. The paper motivates the
// "efficient outer-join based algorithm" for partial-update detection; this
// harness compares the hash-based full outer join against exhaustive pairing
// on growing seed sets. Detection output must be identical, partial for
// partial; the harness exits non-zero if the engines disagree.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/partial.h"
#include "core/window_search.h"

using namespace wiclean;
using namespace wiclean::bench;

namespace {

// The report's partial realizations in order; both engines must agree on it.
std::vector<std::string> Signatures(const PartialUpdateReport& report) {
  std::vector<std::string> out;
  out.reserve(report.partials.size());
  for (const PartialRealization& pr : report.partials) {
    out.push_back(pr.Signature());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = SizeArg(argc, argv, 2000);
  const size_t seed_sizes[] = {scale / 8, scale / 4, scale / 2, scale};

  std::printf(
      "Ablation: Algorithm 3 outer-join engine (hash vs exhaustive pairing)\n"
      "full transfer pattern, 2-week window; times in seconds\n\n");
  std::printf("%-8s %10s %14s %12s %10s\n", "seeds", "hash-join",
              "nested-loop", "slowdown", "signals");

  for (size_t seeds : seed_sizes) {
    SynthWorld world = MakeSoccerWorld(seeds, /*rng_seed=*/71);

    // Mine the transfer window once to get the 4-action club pattern.
    MinerOptions miner_options;
    miner_options.frequency_threshold = 0.5;
    miner_options.max_abstraction_lift = 1;
    miner_options.max_pattern_actions = 4;
    PatternMiner miner(world.registry.get(), &world.store, miner_options);
    TimeWindow window = world.WindowOf(16);
    Result<MineWindowResult> mined =
        miner.MineWindow(world.types.soccer_player, window);
    if (!mined.ok() || mined->most_specific.empty()) {
      std::fprintf(stderr, "mining failed\n");
      return 1;
    }
    const Pattern* transfer = nullptr;
    for (const MinedPattern& mp : mined->most_specific) {
      if (mp.pattern.num_actions() == 4) transfer = &mp.pattern;
    }
    if (transfer == nullptr) transfer = &mined->most_specific.front().pattern;

    PartialDetectorOptions hash_options{
        .max_examples = 3, .use_hash_join = true, .max_abstraction_lift = 1};
    PartialDetectorOptions loop_options{
        .max_examples = 3, .use_hash_join = false, .max_abstraction_lift = 1};
    PartialUpdateDetector hash_detector(world.registry.get(), &world.store,
                                        hash_options);
    PartialUpdateDetector loop_detector(world.registry.get(), &world.store,
                                        loop_options);

    Timer t1;
    Result<PartialUpdateReport> hash_report =
        hash_detector.Detect(*transfer, window);
    double hash_seconds = t1.ElapsedSeconds();
    Timer t2;
    Result<PartialUpdateReport> loop_report =
        loop_detector.Detect(*transfer, window);
    double loop_seconds = t2.ElapsedSeconds();
    if (!hash_report.ok() || !loop_report.ok()) {
      std::fprintf(stderr, "detection failed\n");
      return 1;
    }
    if (Signatures(*hash_report) != Signatures(*loop_report)) {
      std::fprintf(stderr,
                   "ENGINE MISMATCH: partial signatures differ (%zu vs %zu "
                   "signals)\n",
                   hash_report->partials.size(),
                   loop_report->partials.size());
      return 1;
    }
    std::printf("%-8zu %10.4f %14.4f %11.1fx %10zu\n", seeds, hash_seconds,
                loop_seconds,
                hash_seconds > 0 ? loop_seconds / hash_seconds : 0.0,
                hash_report->partials.size());
  }
  return 0;
}
