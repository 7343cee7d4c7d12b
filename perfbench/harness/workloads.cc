#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/pgschema_parser.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "eval/f1.h"

namespace perfbench {

using namespace pghive;

std::pair<double, double> RecordSchema(const std::string& label,
                                       const core::SchemaGraph& schema,
                                       const datasets::GroundTruth& truth,
                                       RunResult* result) {
  const double node_f1 =
      eval::MajorityF1(schema.NodeAssignment(truth.node_type.size()),
                       truth.node_type)
          .f1;
  const double edge_f1 =
      eval::MajorityF1(schema.EdgeAssignment(truth.edge_type.size()),
                       truth.edge_type)
          .f1;
  result->Note(label + ".node_types", std::to_string(schema.num_node_types()));
  result->Note(label + ".edge_types", std::to_string(schema.num_edge_types()));
  result->Note(label + ".node_f1", FormatDouble(node_f1));
  result->Note(label + ".edge_f1", FormatDouble(edge_f1));
  return {node_f1, edge_f1};
}

long long ValidateSchema(const std::string& label, const std::string& pgs,
                         const pg::PropertyGraph& graph, RunResult* result) {
  // A vocabulary copy: parsing interns names, and must not perturb the
  // graph that later iterations discover on.
  pg::Vocabulary vocab = graph.vocab();
  auto parsed = core::ParsePgSchema(pgs, &vocab);
  if (!result->Check(parsed.ok(), label + ": .pgs does not parse")) return -1;
  long long strict_violations = 0;
  for (core::SchemaMode mode :
       {core::SchemaMode::kLoose, core::SchemaMode::kStrict}) {
    core::ValidatorOptions options;
    options.mode = mode;
    core::ValidationReport report =
        core::SchemaValidator(&parsed.value(), options).Validate(graph);
    if (mode == core::SchemaMode::kLoose) {
      result->Check(report.conforms(),
                    label + ": graph does not conform (LOOSE): " +
                        report.Summary());
    } else {
      strict_violations = static_cast<long long>(report.violations.size());
      result->Note(label + ".strict_validation", report.Summary());
    }
  }
  return strict_violations;
}

pg::PropertyGraph CopyGraph(const pg::PropertyGraph& graph) {
  pg::PropertyGraph copy(std::make_shared<pg::Vocabulary>(graph.vocab()));
  copy.mutable_nodes() = graph.nodes();
  copy.mutable_edges() = graph.edges();
  return copy;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

bool KeepGoing(Clock::time_point start, double seconds, size_t done,
               size_t min_iterations) {
  return done < min_iterations || MillisSince(start) < seconds * 1e3;
}

namespace {

/// Trimmed mean over iterations of each iteration's q-quantile.
double MeanOfQuantiles(const std::vector<std::vector<double>>& iterations,
                       double q) {
  std::vector<double> per_iteration;
  for (const std::vector<double>& values : iterations) {
    if (!values.empty()) per_iteration.push_back(Quantile(values, q));
  }
  return TrimmedMean(per_iteration, kIterationTrim);
}

/// Trimmed mean over iterations of each commit position present in every
/// iteration.
std::vector<double> PerCommitMeans(
    const std::vector<std::vector<double>>& iterations) {
  size_t commits = iterations.empty() ? 0 : iterations.front().size();
  for (const std::vector<double>& values : iterations) {
    commits = std::min(commits, values.size());
  }
  std::vector<double> means;
  for (size_t j = 0; j < commits; ++j) {
    std::vector<double> repeats;
    for (const std::vector<double>& values : iterations) {
      repeats.push_back(values[j]);
    }
    means.push_back(TrimmedMean(repeats, kIterationTrim));
  }
  return means;
}

size_t TotalSize(const std::vector<std::vector<double>>& iterations) {
  size_t n = 0;
  for (const std::vector<double>& values : iterations) n += values.size();
  return n;
}

}  // namespace

void SetEndToEndMetrics(const Samples& samples, size_t elements,
                        const std::vector<double>& setup_s,
                        std::pair<double, double> f1,
                        RunResult* result) {
  result->Set("setup_s", Median(setup_s), "s");
  result->Set("elements_per_s",
              static_cast<double>(elements) /
                  (IterationWallMs(samples) / 1e3),
              "elem/s");
  const std::vector<double> commits = PerCommitMeans(samples.commit_ms);
  result->Set("commit_ms_p50", Quantile(commits, 0.5), "ms");
  result->Set("commit_ms_p90", Quantile(commits, 0.9), "ms");
  result->Set("read_ms_p50", MeanOfQuantiles(samples.read_ms, 0.5), "ms");
  result->Set("read_ms_p90", MeanOfQuantiles(samples.read_ms, 0.9), "ms");
  result->Set("cpu_s", TrimmedMean(samples.cpu_s, kIterationTrim), "s");
  result->Set("peak_rss_mb", Median(samples.peak_rss_mb), "MB");
  result->Set("node_f1", f1.first, "ratio");
  result->Set("edge_f1", f1.second, "ratio");
  std::string walls;
  for (double ms : samples.wall_ms) {
    if (!walls.empty()) walls += ' ';
    walls += FormatDouble(ms, 1);
  }
  result->Note("iteration_wall_ms", walls);
  result->Note("commit_samples", std::to_string(TotalSize(samples.commit_ms)));
  result->Note("read_samples", std::to_string(TotalSize(samples.read_ms)));
}

void SetPlanLayerMetrics(const Tracer& tracer, const TracedPlan& plan,
                         size_t schema_bytes, RunResult* result) {
  for (const char* name :
       {"pg.load", "pg.split", "embed.corpus", "embed.train",
        "core.column_build", "core.vectorize", "core.adaptive",
        "lsh.node_hash", "lsh.edge_hash", "lsh.node_group", "lsh.edge_group",
        "core.candidates", "core.extract", "core.constraints",
        "core.datatypes", "core.cardinalities", "core.render"}) {
    result->Set(std::string(name) + "_ms", tracer.TotalMs(name), "ms");
  }
  const PlanStats& stats = plan.stats();
  result->Set("embed.train_cpu_ms", stats.train_cpu_ms, "ms");
  result->Set("core.vectorize_cpu_ms", stats.vectorize_cpu_ms, "ms");
  result->Set("embed.nonfinite_rows", static_cast<double>(plan.NonFiniteRows()),
              "count");
  result->Set("embed.vocab_rows", static_cast<double>(plan.VocabRows()),
              "count");
  result->Set("core.node_bucket_length", stats.node_params.bucket_length,
              "length");
  result->Set("core.node_tables", static_cast<double>(stats.node_params.num_tables),
              "count");
  result->Set("core.mu_fallbacks", static_cast<double>(stats.mu_fallbacks),
              "count");
  result->Set("lsh.node_clusters", static_cast<double>(stats.node_clusters),
              "count");
  result->Set("lsh.edge_clusters", static_cast<double>(stats.edge_clusters),
              "count");
  const core::SchemaGraph& schema = plan.schema();
  const size_t clusters = stats.node_clusters + stats.edge_clusters;
  result->Set("core.types_per_cluster",
              clusters == 0 ? 0.0
                            : static_cast<double>(schema.num_node_types() +
                                                  schema.num_edge_types()) /
                                  static_cast<double>(clusters),
              "ratio");
  result->Set("core.schema_bytes", static_cast<double>(schema_bytes), "bytes");
}

Rendered Render(const core::SchemaGraph& schema, const pg::Vocabulary& vocab) {
  return {core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict),
          core::SerializeXsd(schema, vocab)};
}

size_t RenderSnapshotForms(const core::SchemaGraph& schema,
                           const pg::Vocabulary& vocab, Rendered* rendered) {
  *rendered = Render(schema, vocab);
  return rendered->pgs.size() + rendered->xsd.size() +
         core::SerializePgSchema(schema, vocab, core::SchemaMode::kLoose).size() +
         core::DescribeSchema(schema, vocab).size() +
         core::SerializeSchemaBinary(schema).size();
}

void TimeSnapshotReads(const core::SchemaGraph& schema,
                       const pg::Vocabulary& vocab, const Rendered& expected,
                       int count, std::vector<double>* samples,
                       RunResult* result) {
  for (int k = 0; k < count; ++k) {
    Rendered again;
    const auto t = Clock::now();
    RenderSnapshotForms(schema, vocab, &again);
    samples->push_back(MillisSince(t));
    result->Check(again == expected, "re-render gives the same schema");
  }
}

bool WriteRendered(const Rendered& rendered, const std::string& prefix) {
  return WriteFile(prefix + ".pgs", rendered.pgs) &&
         WriteFile(prefix + ".xsd", rendered.xsd);
}

void RecordHiveStats(const core::PgHive& hive, RunResult* result) {
  const core::PipelineStats& last = hive.last_stats();
  const core::PipelineStats& total = hive.total_stats();
  result->Note("node_b_T", FormatDouble(last.node_params.bucket_length) + ", " +
                               std::to_string(last.node_params.num_tables));
  result->Note("edge_b_T", FormatDouble(last.edge_params.bucket_length) + ", " +
                               std::to_string(last.edge_params.num_tables));
  result->Note("node_clusters", std::to_string(total.node_clusters));
  result->Note("edge_clusters", std::to_string(total.edge_clusters));
}

}  // namespace perfbench
