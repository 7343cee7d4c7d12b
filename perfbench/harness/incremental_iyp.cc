// incremental-iyp: IYP (86 types, 33 labels) already in memory, split into
// batches and run with MinHash through core::BatchPipeline, then Finish and
// render. Graph load is not timed; per-batch fixed costs are. The pipeline
// is asked for depth 2; at one thread it runs the batches sequentially.
#include <unistd.h>

#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "workloads.h"

namespace perfbench {

using namespace pghive;

namespace {

constexpr size_t kMinIterations = 3;
constexpr size_t kSetupRepeats = 3;
constexpr int kReadsPerIteration = 20;
constexpr uint64_t kSplitSeed = 1;  // The CLI's --batches split seed.

}  // namespace

void RunIncrementalIyp(const Context& ctx, RunResult* r) {
  const double scale = ctx.smoke ? 0.5 : 16;
  const size_t num_batches = ctx.smoke ? 8 : 64;

  // Set-up: generate the graph in memory.
  std::vector<double> setup_s;
  datasets::Dataset ds;
  for (size_t i = 0; i < (ctx.trace ? 1 : kSetupRepeats); ++i) {
    const auto start = Clock::now();
    ds = datasets::Generate(datasets::IypSpec(), scale, ctx.seed);
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  const pg::PropertyGraph& pristine = ds.graph;
  const size_t elements = pristine.num_nodes() + pristine.num_edges();
  r->Note("dataset", "IYP scale " + FormatDouble(scale, 2) + ": " +
                         std::to_string(pristine.num_nodes()) + " nodes, " +
                         std::to_string(pristine.num_edges()) + " edges in " +
                         std::to_string(num_batches) + " batches");

  core::PgHiveOptions options;
  options.method = core::ClusterMethod::kMinHash;
  options.num_threads = kHiveThreads;
  r->Note("threads", std::to_string(options.num_threads));
  options.pipeline_depth = 2;

  Samples samples;
  Rendered reference;
  std::pair<double, double> f1;
  const auto start = Clock::now();
  for (size_t iter = 0;
       KeepGoing(start, ctx.trace ? 0 : ctx.seconds, iter, kMinIterations);
       ++iter) {
    pg::PropertyGraph graph = CopyGraph(pristine);
    ResetSelfPeakRss();
    const double cpu0 = SelfCpuSeconds();
    const auto t0 = Clock::now();
    std::vector<pg::GraphBatch> batches =
        pg::SplitIntoBatches(graph, num_batches, kSplitSeed);
    auto hive = core::PgHive::Create(&graph, options);
    if (!r->Check(hive.ok(), "create hive: " + hive.status().ToString())) return;
    core::BatchPipeline pipeline(hive->get());
    util::Status ran = pipeline.Run(batches);
    if (!r->Check(ran.ok(), "BatchPipeline::Run: " + ran.ToString())) return;
    util::Status finished = (*hive)->Finish();
    if (!r->Check(finished.ok(), "Finish: " + finished.ToString())) return;
    Rendered out = Render((*hive)->schema(), graph.vocab());
    const bool written = WriteRendered(out, ctx.work_dir + "/iyp");
    samples.wall_ms.push_back(MillisSince(t0));
    samples.cpu_s.push_back(SelfCpuSeconds() - cpu0);
    samples.peak_rss_mb.push_back(PeakRssMb(getpid()));
    std::vector<double>& commits = samples.commit_ms.emplace_back();
    for (const core::PipelineStats& stats : pipeline.batch_stats()) {
      commits.push_back(stats.total_ms());
    }
    r->Check(written, "write schema files");

    TimeSnapshotReads((*hive)->schema(), graph.vocab(), out,
                      kReadsPerIteration, &samples.read_ms.emplace_back(), r);
    if (iter == 0) {
      reference = out;
      RecordHiveStats(**hive, r);
      r->Note("pipeline_depth", std::to_string(pipeline.depth()));
      f1 = RecordSchema("iyp", (*hive)->schema(), ds.truth, r);
      const long long strict = ValidateSchema("iyp", out.pgs, graph, r);
      r->Set("core.strict_violations", static_cast<double>(strict), "count");
    } else {
      r->Check(out == reference, "repeat run gives the same schema");
    }
  }
  SetEndToEndMetrics(samples, elements, setup_s, f1, r);

  // Output check: the sequential plan replay (traced when tracing is on)
  // gives the pipeline's bytes.
  pg::PropertyGraph graph = CopyGraph(pristine);
  util::ThreadPool pool(kHiveThreads);
  TracedPlan plan(&graph, options, &pool, ctx.tracer);
  Rendered out;
  const auto t0 = Clock::now();
  {
    ScopedSpan run(ctx.tracer, "bench.run");
    std::vector<pg::GraphBatch> batches;
    {
      ScopedSpan span(ctx.tracer, "pg.split");
      batches = pg::SplitIntoBatches(graph, num_batches, kSplitSeed);
    }
    for (const pg::GraphBatch& batch : batches) {
      ScopedSpan span(ctx.tracer, "bench.batch");
      plan.ProcessBatch(batch);
    }
    plan.Finish();
    {
      ScopedSpan span(ctx.tracer, "core.render");
      out = Render(plan.schema(), graph.vocab());
    }
    ScopedSpan span(ctx.tracer, "bench.write");
    WriteRendered(out, ctx.work_dir + "/iyp-replay");
  }
  const double replay_ms = MillisSince(t0);
  r->Check(out == reference,
           "sequential plan replay gives the pipeline's schema bytes");
  r->Note("embed.nonfinite_rows", std::to_string(plan.NonFiniteRows()) + " of " +
                                      std::to_string(plan.VocabRows()));
  r->Note("mu_fallbacks", std::to_string(plan.stats().mu_fallbacks));
  if (ctx.tracer != nullptr) {
    SetPlanLayerMetrics(*ctx.tracer, plan, out.pgs.size() + out.xsd.size(),
                        r);
    r->Set("trace.overhead_ms", replay_ms - IterationWallMs(samples), "ms");
  }
}

}  // namespace perfbench
