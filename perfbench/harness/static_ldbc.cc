// static-ldbc: one-shot ELSH discovery of LDBC (the paper's Fig. 5 path).
// Timed span per iteration: graph-file bytes -> pg::LoadGraphText ->
// PgHive::Run -> render .pgs and .xsd -> write.
#include <unistd.h>

#include "core/pghive.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph_io.h"
#include "workloads.h"

namespace perfbench {

using namespace pghive;

namespace {

constexpr size_t kMinIterations = 3;
constexpr size_t kSetupRepeats = 3;
constexpr int kReadsPerIteration = 20;

}  // namespace

void RunStaticLdbc(const Context& ctx, RunResult* r) {
  const double scale = ctx.smoke ? 0.5 : 16;
  const std::string graph_path = ctx.work_dir + "/ldbc.graph";

  // Set-up: generate the dataset and write the graph file.
  std::vector<double> setup_s;
  datasets::GroundTruth truth;
  size_t nodes = 0;
  size_t edges = 0;
  for (size_t i = 0; i < (ctx.trace ? 1 : kSetupRepeats); ++i) {
    const auto start = Clock::now();
    datasets::Dataset ds = datasets::Generate(datasets::LdbcSpec(), scale, ctx.seed);
    util::Status saved = pg::SaveGraphFile(ds.graph, graph_path);
    setup_s.push_back(MillisSince(start) / 1e3);
    if (!r->Check(saved.ok(), "write graph file: " + saved.ToString())) return;
    nodes = ds.graph.num_nodes();
    edges = ds.graph.num_edges();
    truth = std::move(ds.truth);
  }
  const size_t elements = nodes + edges;
  r->Note("dataset", "LDBC scale " + FormatDouble(scale, 2) + ": " +
                         std::to_string(nodes) + " nodes, " +
                         std::to_string(edges) + " edges");
  const double file_mb = static_cast<double>(FileSize(graph_path)) / 1e6;
  r->Note("graph_file_mb", FormatDouble(file_mb, 2));

  core::PgHiveOptions options;
  options.num_threads = kHiveThreads;
  r->Note("threads", std::to_string(options.num_threads));

  Samples samples;
  Rendered reference;
  std::pair<double, double> f1;
  const auto start = Clock::now();
  for (size_t iter = 0;
       KeepGoing(start, ctx.trace ? 0 : ctx.seconds, iter, kMinIterations);
       ++iter) {
    ResetSelfPeakRss();
    const double cpu0 = SelfCpuSeconds();
    const auto t0 = Clock::now();
    std::string bytes;
    if (!r->Check(ReadFile(graph_path, &bytes), "read graph file")) return;
    auto loaded = pg::LoadGraphText(bytes);
    if (!r->Check(loaded.ok(), "load graph: " + loaded.status().ToString())) {
      return;
    }
    pg::PropertyGraph graph = std::move(loaded).value();
    auto hive = core::PgHive::Create(&graph, options);
    if (!r->Check(hive.ok(), "create hive: " + hive.status().ToString())) return;
    const auto commit_start = Clock::now();
    util::Status ran = (*hive)->Run();
    const double commit_ms = MillisSince(commit_start);
    if (!r->Check(ran.ok(), "PgHive::Run: " + ran.ToString())) return;
    Rendered out = Render((*hive)->schema(), graph.vocab());
    const bool written = WriteRendered(out, ctx.work_dir + "/ldbc");
    samples.wall_ms.push_back(MillisSince(t0));
    samples.cpu_s.push_back(SelfCpuSeconds() - cpu0);
    samples.peak_rss_mb.push_back(PeakRssMb(getpid()));
    samples.commit_ms.push_back({commit_ms});
    r->Check(written, "write schema files");

    TimeSnapshotReads((*hive)->schema(), graph.vocab(), out,
                      kReadsPerIteration, &samples.read_ms.emplace_back(), r);
    if (iter == 0) {
      reference = out;
      RecordHiveStats(**hive, r);
      f1 = RecordSchema("ldbc", (*hive)->schema(), truth, r);
      const long long strict = ValidateSchema("ldbc", out.pgs, graph, r);
      r->Set("core.strict_violations", static_cast<double>(strict), "count");
    } else {
      r->Check(out == reference, "repeat run gives the same schema");
    }
  }
  SetEndToEndMetrics(samples, elements, setup_s, f1, r);

  // Output check: the plan rebuilt from the layers' public calls gives the
  // same bytes (this is the traced replay when tracing is on).
  {
    const auto t0 = Clock::now();
    std::string bytes;
    std::unique_ptr<pg::PropertyGraph> graph;
    util::ThreadPool pool(kHiveThreads);
    std::unique_ptr<TracedPlan> plan;
    Rendered out;
    {
      ScopedSpan run(ctx.tracer, "bench.run");
      {
        ScopedSpan span(ctx.tracer, "bench.read");
        ReadFile(graph_path, &bytes);
      }
      {
        ScopedSpan span(ctx.tracer, "pg.load");
        auto loaded = pg::LoadGraphText(bytes);
        if (!r->Check(loaded.ok(), "replay load")) return;
        graph = std::make_unique<pg::PropertyGraph>(std::move(loaded).value());
      }
      plan = std::make_unique<TracedPlan>(graph.get(), options, &pool, ctx.tracer);
      pg::GraphBatch batch;
      {
        ScopedSpan span(ctx.tracer, "pg.split");
        batch = pg::FullBatch(*graph);
      }
      plan->ProcessBatch(batch);
      plan->Finish();
      {
        ScopedSpan span(ctx.tracer, "core.render");
        out = Render(plan->schema(), graph->vocab());
      }
      ScopedSpan span(ctx.tracer, "bench.write");
      WriteRendered(out, ctx.work_dir + "/ldbc-replay");
    }
    const double replay_ms = MillisSince(t0);
    r->Check(out == reference,
             "plan replay from public calls gives PgHive's schema bytes");
    r->Note("embed.nonfinite_rows", std::to_string(plan->NonFiniteRows()) +
                                        " of " + std::to_string(plan->VocabRows()));
    r->Note("mu_fallbacks", std::to_string(plan->stats().mu_fallbacks));
    if (ctx.tracer != nullptr) {
      SetPlanLayerMetrics(*ctx.tracer, *plan, out.pgs.size() + out.xsd.size(),
                          r);
      const double load_ms = ctx.tracer->TotalMs("pg.load");
      r->Set("pg.load_mb_per_s", load_ms > 0 ? file_mb / (load_ms / 1e3) : 0,
             "MB/s");
      r->Set("trace.overhead_ms", replay_ms - IterationWallMs(samples), "ms");
    }
  }

  // Output check: the CLI on the same file writes the same bytes.
  const std::string ref_prefix = ctx.work_dir + "/ldbc-cli";
  const int rc = RunProcess({ctx.bin_dir + "/pghive", "discover", "--graph",
                             graph_path, "--threads", std::to_string(kHiveThreads),
                             "--out", ref_prefix},
                            ctx.work_dir + "/cli.log");
  Rendered cli;
  const bool read_ok = ReadFile(ref_prefix + ".pgs", &cli.pgs) &&
                       ReadFile(ref_prefix + ".xsd", &cli.xsd);
  r->Check(rc == 0 && read_ok && cli == reference,
           "pghive discover on the same file gives the same schema bytes");
}

}  // namespace perfbench
