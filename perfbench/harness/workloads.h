// The three benchmark workloads and what they share: run context, result
// (metrics, operation counts, the run record) and the output checks.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pghive.h"
#include "core/schema.h"
#include "datasets/generator.h"
#include "pg/graph.h"
#include "plan.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// Threads of in-process discovery (static-ldbc, incremental-iyp). On a
/// shared host every further busy vCPU raises the time the hypervisor steals
/// from the run, and PG-HIVE's threads wait on each other, which turns that
/// steal into run-to-run spread (4 vCPUs: about 0.5 % steal at one thread,
/// 3 to 9 % at two).
inline constexpr size_t kHiveThreads = 1;

struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      ///< Tiny scales, for the benchmark's own tests.
  std::string work_dir;    ///< Scratch files of this run.
  std::string bin_dir;     ///< Holds the pghive and pghived executables.
  size_t threads = 1;      ///< nproc: pghived worker threads.
  Tracer* tracer = nullptr;  ///< Set only for the traced run.
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  /// What was measured, printed next to the timings ("key: value").
  std::vector<std::pair<std::string, std::string>> record;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& key, const std::string& value) {
    record.emplace_back(key, value);
  }
  /// Counts one operation; a false `ok` counts it failed and keeps `what`.
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
    return ok;
  }
};

void RunStaticLdbc(const Context& ctx, RunResult* result);
void RunIncrementalIyp(const Context& ctx, RunResult* result);
void RunDaemonStream(const Context& ctx, RunResult* result);

// ---- Shared helpers (workloads.cc) ----

/// Samples of the untraced iterations of a workload.
///
/// commit_ms[i][j] is commit j of iteration i. Every iteration replays the
/// same batches, so commit j is a repeated measurement: the reported
/// percentiles are taken across commits of each commit's trimmed mean over
/// iterations, which keeps a stall that hit one iteration out of the batch
/// cost distribution (Fig. 7). read_ms[i] holds iteration i's reads; their
/// percentile is taken per iteration and averaged over iterations.
///
/// Across iterations the workloads report a trimmed mean (kIterationTrim
/// dropped at each end), not a median: on a shared host the same code runs
/// in a fast and a slow mode, switching within a second, and the median of
/// such a sample jumps between the two modes from run to run when they are
/// about equally common, while the trimmed mean moves with their mix.
inline constexpr double kIterationTrim = 0.1;

struct Samples {
  std::vector<double> wall_ms;    ///< Input to written schema, per iteration.
  std::vector<double> cpu_s;      ///< Process CPU per iteration.
  std::vector<double> peak_rss_mb;  ///< Peak RSS during each iteration.
  std::vector<std::vector<double>> commit_ms;
  std::vector<std::vector<double>> read_ms;
};

/// The wall time of one iteration that elements_per_s divides by: the
/// trimmed mean over iterations.
inline double IterationWallMs(const Samples& samples) {
  return TrimmedMean(samples.wall_ms, kIterationTrim);
}

/// The end-to-end metrics every in-process workload reports (success_rate
/// is added by the driver once all operations are counted).
void SetEndToEndMetrics(const Samples& samples, size_t elements,
                        const std::vector<double>& setup_s,
                        std::pair<double, double> f1,
                        RunResult* result);

/// Per-layer metrics from a traced plan replay (`plan` ran under `tracer`).
void SetPlanLayerMetrics(const Tracer& tracer, const TracedPlan& plan,
                         size_t schema_bytes, RunResult* result);

/// The schema's text forms as `pghive discover --out` writes them.
struct Rendered {
  std::string pgs;
  std::string xsd;
  bool operator==(const Rendered&) const = default;
};
Rendered Render(const pghive::core::SchemaGraph& schema,
                const pghive::pg::Vocabulary& vocab);
/// Renders the five forms a pghived snapshot read returns (STRICT and LOOSE
/// PG-Schema, XSD, description, binary) — the in-process "read" of a
/// schema. Returns their total size; `rendered` receives the STRICT .pgs and
/// the .xsd.
size_t RenderSnapshotForms(const pghive::core::SchemaGraph& schema,
                           const pghive::pg::Vocabulary& vocab,
                           Rendered* rendered);
/// Times `count` snapshot renders into `samples` and checks each against
/// `expected`.
void TimeSnapshotReads(const pghive::core::SchemaGraph& schema,
                       const pghive::pg::Vocabulary& vocab,
                       const Rendered& expected, int count,
                       std::vector<double>* samples, RunResult* result);
/// Writes PREFIX.pgs and PREFIX.xsd.
bool WriteRendered(const Rendered& rendered, const std::string& prefix);

/// Records the hive's adaptive (b, T) choice and cluster counts.
void RecordHiveStats(const pghive::core::PgHive& hive, RunResult* result);

/// Parses `pgs` against a copy of the graph's vocabulary and validates the
/// graph in LOOSE and STRICT mode. LOOSE conformance is an output check;
/// the STRICT violation count is recorded and returned (-1 on parse error).
long long ValidateSchema(const std::string& label, const std::string& pgs,
                         const pghive::pg::PropertyGraph& graph,
                         RunResult* result);

/// An independent copy of `graph` with its own vocabulary, so discovery on
/// the copy (which interns label-set tokens) leaves `graph` untouched.
pghive::pg::PropertyGraph CopyGraph(const pghive::pg::PropertyGraph& graph);

/// Records the schema's type counts and node/edge F1* against the
/// generator's ground truth under `label`, and returns the F1* pair.
std::pair<double, double> RecordSchema(const std::string& label,
                                       const pghive::core::SchemaGraph& schema,
                                       const pghive::datasets::GroundTruth& truth,
                                       RunResult* result);

std::string FormatDouble(double value, int precision = 4);

/// Runs until `seconds` have passed and at least `min_iterations` ran.
bool KeepGoing(Clock::time_point start, double seconds, size_t done,
               size_t min_iterations);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
