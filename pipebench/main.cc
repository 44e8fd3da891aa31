// pipebench: one self-verifying benchmark of the WiClean pipeline, driven
// in-process through the libraries' public entry points.
//
//   pipebench --workload mine_soccer|ingest_mixed|serve_churn --seed N
//             --seconds S --trace 0|1 [--size full|tiny]
//             [--inject none|corrupt-wcal|drop-event] [--trace-out F.json]
//
// The last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, spans are written to
// --trace-out as Chrome trace-event JSON, and a per-layer self-time summary
// goes to standard error. A failed layer call or oracle gate exits 1 without
// printing a result. See README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace pipebench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "mine_soccer|ingest_mixed|serve_churn --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] "
               "[--inject none|corrupt-wcal|drop-event] [--trace-out F]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* opts, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        *error = "bad --size " + value;
        return false;
      }
      opts->tiny = value == "tiny";
    } else if (flag == "--inject") {
      if (value == "none") {
        opts->inject = Inject::kNone;
      } else if (value == "corrupt-wcal") {
        opts->inject = Inject::kCorruptWcal;
      } else if (value == "drop-event") {
        opts->inject = Inject::kDropEvent;
      } else {
        *error = "bad --inject " + value;
        return false;
      }
    } else if (flag == "--trace-out") {
      opts->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

void PrintSelfTimes(const Tracer& tracer) {
  std::fprintf(stderr,
               "per-layer self time (%zu spans kept, %zu past the cap):\n",
               tracer.num_spans(), tracer.dropped_spans());
  std::fprintf(stderr, "  %-40s %10s %12s %12s\n", "span", "count",
               "total_s", "self_s");
  for (const SelfTime& t : tracer.SelfTimes()) {
    std::fprintf(stderr, "  %-40s %10llu %12.6f %12.6f\n", t.name.c_str(),
                 static_cast<unsigned long long>(t.spans), t.total_s,
                 t.self_s);
  }
}

int Main(int argc, char** argv) {
  RunOptions opts;
  std::string error;
  if (!ParseArgs(argc, argv, &opts, &error)) return Usage(error.c_str());
  Status (*run)(const RunOptions&, Tracer*, Recorder*) = nullptr;
  if (opts.workload == "mine_soccer") run = RunMineSoccer;
  if (opts.workload == "ingest_mixed") run = RunIngestMixed;
  if (opts.workload == "serve_churn") run = RunServeChurn;
  if (run == nullptr) return Usage("unknown --workload");

  Tracer tracer(opts.trace);
  Recorder rec;
  Status status = run(opts, &tracer, &rec);
  if (!status.ok()) {
    std::fprintf(stderr, "pipebench: %s failed: %s\n", opts.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  rec.Add("peak_rss_mb", PeakRssMb());

  if (opts.trace) {
    PrintSelfTimes(tracer);
    if (!opts.trace_out.empty() && !tracer.WriteChromeTrace(opts.trace_out)) {
      std::fprintf(stderr, "pipebench: cannot write %s\n",
                   opts.trace_out.c_str());
      return 1;
    }
  }
  // The end-to-end values go to standard error in both modes, so a traced
  // and an untraced run can be compared for tracing overhead.
  std::string e2e;
  for (const MetricDef& m : MetricCatalog()) {
    if (!m.end_to_end) continue;
    if (!rec.Has(m.name)) {
      std::fprintf(stderr, "pipebench: end-to-end metric %s not measured\n",
                   m.name);
      return 1;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s=%.6g", m.name, rec.Median(m.name));
    e2e += buf;
  }
  std::fprintf(stderr, "end-to-end (%s):%s\n",
               opts.trace ? "traced" : "untraced", e2e.c_str());

  std::string metrics;
  for (const MetricDef& m : MetricCatalog()) {
    if (m.end_to_end == opts.trace) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, rec.Median(m.name),
                  m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(rec.attempted()),
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
