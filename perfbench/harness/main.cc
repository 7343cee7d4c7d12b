// perfbench_harness — runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload static-ldbc|incremental-iyp|daemon-stream
//       --seed N --seconds S --trace 0|1 --work-dir DIR --bin-dir DIR
//       [--smoke]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// re-runs the workload as a traced replay and prints every per-layer metric,
// writes DIR/trace.json and prints a self-time table. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any output check failed.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/smoke_test.py checks that).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"elements_per_s", "elem/s"},
    {"commit_ms_p50", "ms"},   {"commit_ms_p90", "ms"},
    {"read_ms_p50", "ms"},     {"read_ms_p90", "ms"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MB"},
    {"node_f1", "ratio"},      {"edge_f1", "ratio"},
    {"success_rate", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"pg.self_ms", "ms"},
    {"embed.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"lsh.self_ms", "ms"},
    {"service.self_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"pg.load_ms", "ms"},
    {"pg.load_mb_per_s", "MB/s"},
    {"pg.split_ms", "ms"},
    {"embed.corpus_ms", "ms"},
    {"embed.train_ms", "ms"},
    {"embed.train_cpu_ms", "ms"},
    {"embed.nonfinite_rows", "count"},
    {"embed.vocab_rows", "count"},
    {"core.column_build_ms", "ms"},
    {"core.vectorize_ms", "ms"},
    {"core.vectorize_cpu_ms", "ms"},
    {"core.adaptive_ms", "ms"},
    {"core.node_bucket_length", "length"},
    {"core.node_tables", "count"},
    {"core.mu_fallbacks", "count"},
    {"lsh.node_hash_ms", "ms"},
    {"lsh.edge_hash_ms", "ms"},
    {"lsh.node_group_ms", "ms"},
    {"lsh.edge_group_ms", "ms"},
    {"lsh.node_clusters", "count"},
    {"lsh.edge_clusters", "count"},
    {"core.candidates_ms", "ms"},
    {"core.extract_ms", "ms"},
    {"core.types_per_cluster", "ratio"},
    {"core.constraints_ms", "ms"},
    {"core.datatypes_ms", "ms"},
    {"core.cardinalities_ms", "ms"},
    {"core.render_ms", "ms"},
    {"core.schema_bytes", "bytes"},
    {"core.strict_violations", "count"},
    {"core.diff_ms", "ms"},
    {"core.save_state_ms", "ms"},
    {"core.state_bytes", "bytes"},
    {"service.ingest_rpc_ms", "ms"},
    {"service.feed_rpc_ms", "ms"},
    {"service.session_commit_ms", "ms"},
    {"service.wire_share", "ratio"},
    {"service.assemble_ms", "ms"},
    {"service.checkpoint_ms", "ms"},
    {"service.checkpoint_bytes", "bytes"},
    {"service.feed_bytes", "bytes"},
    {"service.write_amp", "ratio"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises as
  // large blocks are freed, so later iterations would place their buffers
  // differently from the first (and from a one-shot pghive discover), and
  // peak RSS would jump between iterations.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Context ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      ctx.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      ctx.workload = argv[++i];
    } else if (arg == "--seed") {
      ctx.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      ctx.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      ctx.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      ctx.work_dir = argv[++i];
    } else if (arg == "--bin-dir") {
      ctx.bin_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (ctx.work_dir.empty() || ctx.bin_dir.empty()) {
    return Usage("--work-dir and --bin-dir are required");
  }
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer(ctx.workload, ctx.seed);
  if (ctx.trace) ctx.tracer = &tracer;

  RunResult result;
  result.Note("workload", ctx.workload);
  result.Note("seed", std::to_string(ctx.seed));
  result.Note("nproc", std::to_string(ctx.threads));
  result.Note("compiler", __VERSION__);
  result.Note("build_type", PERFBENCH_BUILD_TYPE);
  result.Note("mode", std::string(ctx.trace ? "traced" : "untraced") +
                          (ctx.smoke ? ", smoke scales" : ""));
  const CpuTicks ticks_before = ReadCpuTicks();
  if (ctx.workload == "static-ldbc") {
    RunStaticLdbc(ctx, &result);
  } else if (ctx.workload == "incremental-iyp") {
    RunIncrementalIyp(ctx, &result);
  } else if (ctx.workload == "daemon-stream") {
    RunDaemonStream(ctx, &result);
  } else {
    return Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  const double ticks = static_cast<double>(ticks_after.total - ticks_before.total);
  result.Note("host_steal_pct",
              FormatDouble(ticks > 0 ? 100.0 *
                                           static_cast<double>(ticks_after.steal -
                                                               ticks_before.steal) /
                                           ticks
                                     : 0.0,
                           2));
  result.Set("success_rate",
             result.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted),
             "ratio");

  if (ctx.trace) {
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      result.Set(layer + ".self_ms", ms, "ms");
    }
    tracer.WriteJson(ctx.work_dir + "/trace.json");
    std::printf("%s", tracer.SelfTimeTable().c_str());
  }

  // Every metric of the mode's catalogue, in catalogue order. A per-layer
  // metric a workload does not exercise reads 0 (the layer did no work).
  std::string metrics_json;
  bool complete = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(spec.name) + ": {\"value\": " +
                    JsonNumber(value) + ", \"unit\": " + JsonString(spec.unit) +
                    "}";
    std::printf("  %-28s %16.6g %s\n", spec.name, value, spec.unit);
  };
  std::printf("metrics, workload %s (%s):\n", ctx.workload.c_str(),
              ctx.trace ? "per layer" : "end to end");
  const std::span<const MetricSpec> catalogue =
      ctx.trace ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : catalogue) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && ctx.trace) {
      emit(spec, 0.0);
    } else if (it == result.metrics.end() || it->second.unit != spec.unit) {
      complete = false;
      result.failures.push_back(std::string("metric not measured in ") +
                                spec.unit + ": " + spec.name);
    } else {
      emit(spec, it->second.value);
    }
  }
  std::printf("measured (workload %s):\n", ctx.workload.c_str());
  for (const auto& [key, value] : result.record) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("error_rate: %zu failed of %zu attempted\n", result.failed,
              result.attempted);
  for (const std::string& f : result.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const bool correct = complete && result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
