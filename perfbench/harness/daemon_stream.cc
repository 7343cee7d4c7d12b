// daemon-stream: a separate pghived (--checkpoint-dir, --checkpoint-every 1)
// serves two tenants at once over loopback. Each tenant streams its graph
// in a closed loop with one batch in flight (ingest-batch k, then long-poll
// subscribe-changefeed for version k); a third connection runs a closed loop
// of snapshot reads while ingest runs.
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/pghive.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "datasets/zoo.h"
#include "pg/graph_io.h"
#include "service/assembler.h"
#include "service/client.h"
#include "service/job_queue.h"
#include "service/session.h"
#include "workloads.h"

namespace perfbench {

using namespace pghive;

namespace {

constexpr size_t kMinIterations = 2;
constexpr size_t kSetupRepeats = 5;
constexpr uint64_t kFeedWaitMs = 30000;
constexpr uint64_t kSplitSeed = 1;  // The CLI's --batches split seed.

struct Tenant {
  std::string name;
  datasets::Dataset dataset;
  std::string graph_path;
  std::vector<std::string> payloads;
  size_t payload_bytes = 0;
  size_t elements() const {
    return dataset.graph.num_nodes() + dataset.graph.num_edges();
  }
};

/// One tenant's stream during one iteration.
struct TenantRun {
  std::string session;
  std::vector<double> commit_ms;
  std::string final_pgs;
  double done_ms = 0;  ///< Final schema received, since the iteration start.
  std::atomic<size_t> committed{0};
  std::atomic<bool> ingest_done{false};
  std::vector<std::string> errors;
};

struct Iteration {
  double wall_ms = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> commit_ms;
  std::vector<double> read_ms;
  std::vector<std::string> final_pgs;    ///< Per tenant.
  std::vector<std::string> final_binary;
};

/// The pghived process under test.
class Daemon {
 public:
  bool Start(const Context& ctx) {
    namespace fs = std::filesystem;
    const std::string dir = ctx.work_dir + "/checkpoints";
    const std::string port_file = ctx.work_dir + "/pghived.port";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    fs::remove(port_file, ec);
    if (!process_.Start({ctx.bin_dir + "/pghived", "--port", "0", "--port-file",
                         port_file, "--threads", std::to_string(ctx.threads),
                         "--checkpoint-dir", dir, "--checkpoint-every", "1"},
                        ctx.work_dir + "/pghived.log")) {
      return false;
    }
    const auto start = Clock::now();
    while (MillisSince(start) < 10000) {
      std::string text;
      if (ReadFile(port_file, &text) && !text.empty() &&
          text.back() == '\n') {
        port_ = static_cast<uint16_t>(std::stoi(text));
        auto client = service::PghivedClient::Connect(port_);
        return client.ok() && client->Ping().ok();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }
  int Stop() { return process_.Stop(); }
  uint16_t port() const { return port_; }
  pid_t pid() const { return process_.pid(); }

 private:
  ChildProcess process_;
  uint16_t port_ = 0;
};

void StreamTenant(service::PghivedClient* client, const Tenant& tenant,
                  Clock::time_point start, Tracer* tracer, TenantRun* run) {
  ScopedSpan stream(tracer, "service.tenant_stream");
  for (size_t k = 0; k < tenant.payloads.size(); ++k) {
    const auto sent = Clock::now();
    {
      ScopedSpan span(tracer, "service.ingest_rpc");
      auto seq = client->IngestBatch(run->session, tenant.payloads[k]);
      if (!seq.ok()) {
        run->errors.push_back("ingest: " + seq.status().ToString());
        return;
      }
    }
    // Long-poll until the changefeed record of version k + 1 arrives.
    bool committed = false;
    while (!committed) {
      ScopedSpan span(tracer, "service.feed_rpc");
      auto feed = client->SubscribeChangefeed(run->session, k, kFeedWaitMs);
      auto records = feed.ok() ? core::ParseSchemaDiffStream(*feed)
                               : util::StatusOr<std::vector<core::SchemaDiff>>(
                                     feed.status());
      if (!records.ok() || records->empty()) {
        run->errors.push_back("changefeed: " + (records.ok()
                                                    ? std::string("timed out")
                                                    : records.status().ToString()));
        return;
      }
      for (const core::SchemaDiff& diff : *records) {
        committed = committed || diff.version_to >= k + 1;
      }
    }
    run->commit_ms.push_back(MillisSince(sent));
    run->committed.store(k + 1);
  }
  run->ingest_done.store(true);
  ScopedSpan span(tracer, "service.final_schema_rpc");
  auto pgs = client->GetSchema(run->session, "pgs");
  if (!pgs.ok()) {
    run->errors.push_back("final get-schema: " + pgs.status().ToString());
    return;
  }
  run->final_pgs = std::move(*pgs);
  run->done_ms = MillisSince(start);
}

/// One iteration: both tenants stream concurrently while a reader polls
/// snapshots. Operations (ingests, reads, final fetches) are counted in `r`.
bool StreamOnce(const Daemon& daemon, const std::vector<Tenant>& tenants,
                Tracer* tracer, RunResult* r, Iteration* out) {
  std::vector<service::PghivedClient> clients;
  std::vector<TenantRun> runs(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto client = service::PghivedClient::Connect(daemon.port());
    if (!r->Check(client.ok(), "connect: " + client.status().ToString())) {
      return false;
    }
    auto session = client->CreateSession({});
    if (!r->Check(session.ok(), "create-session: " + session.status().ToString())) {
      return false;
    }
    runs[i].session = *session;
    clients.push_back(std::move(*client));
  }
  auto reader = service::PghivedClient::Connect(daemon.port());
  if (!r->Check(reader.ok(), "connect reader")) return false;

  std::atomic<bool> stop_reads{false};
  std::vector<std::string> read_errors;
  ResetPeakRss(daemon.pid());
  const double cpu0 = ProcessCpuSeconds(daemon.pid());
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back(StreamTenant, &clients[i], std::cref(tenants[i]),
                         start, tracer, &runs[i]);
  }
  std::thread read_loop([&] {
    while (!stop_reads.load()) {
      bool any = false;
      for (TenantRun& run : runs) {
        if (run.committed.load() == 0 || run.ingest_done.load()) continue;
        any = true;
        const auto t = Clock::now();
        ScopedSpan span(tracer, "service.read_rpc");
        auto pgs = reader->GetSchema(run.session, "pgs", /*snapshot=*/true);
        if (pgs.ok()) {
          out->read_ms.push_back(MillisSince(t));
        } else {
          read_errors.push_back(pgs.status().ToString());
        }
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : threads) t.join();
  stop_reads.store(true);
  read_loop.join();
  out->cpu_s = ProcessCpuSeconds(daemon.pid()) - cpu0;
  out->peak_rss_mb = PeakRssMb(daemon.pid());

  r->attempted += out->read_ms.size() + read_errors.size();
  r->failed += read_errors.size();
  for (const std::string& e : read_errors) r->failures.push_back("read: " + e);
  bool ok = true;
  for (size_t i = 0; i < tenants.size(); ++i) {
    TenantRun& run = runs[i];
    // Every ingest is one operation; the final fetch another.
    r->attempted += tenants[i].payloads.size() + 1;
    const size_t missing =
        tenants[i].payloads.size() - run.commit_ms.size() +
        (run.final_pgs.empty() ? 1 : 0);
    r->failed += missing;
    for (const std::string& e : run.errors) {
      r->failures.push_back(tenants[i].name + " " + e);
    }
    ok = ok && missing == 0;
    out->wall_ms = std::max(out->wall_ms, run.done_ms);
    out->commit_ms.insert(out->commit_ms.end(), run.commit_ms.begin(),
                          run.commit_ms.end());
    out->final_pgs.push_back(run.final_pgs);
    auto binary = clients[i].GetSchema(run.session, "binary", /*snapshot=*/true);
    out->final_binary.push_back(binary.ok() ? *binary : std::string());
    r->Check(clients[i].CloseSession(run.session).ok(), "close-session");
  }
  return ok;
}

/// Replays the payloads through an in-process service::Session with the
/// daemon's durability settings (no socket), with probe replicas of the
/// assemble, render and diff steps; sets the per-layer service metrics.
void ReplaySessions(const Context& ctx, const std::vector<Tenant>& tenants,
                    const std::vector<std::string>& daemon_pgs,
                    double daemon_commit_p50, RunResult* r) {
  Tracer* tracer = ctx.tracer;
  util::ThreadPool pool(ctx.threads);
  service::JobQueue queue(&pool);
  core::PgHiveOptions options;
  options.num_threads = ctx.threads;
  double checkpoint_bytes = 0, feed_bytes = 0, payload_bytes = 0;
  double state_bytes = 0, schema_bytes = 0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& tenant = tenants[i];
    service::SessionDurability durability;
    durability.state_path = ctx.work_dir + "/replay-" + std::to_string(i) + ".pghd";
    durability.feed_path = ctx.work_dir + "/replay-" + std::to_string(i) + ".feed";
    durability.checkpoint_every = 1;
    auto session = service::Session::Create("replay" + std::to_string(i), {},
                                            &pool, &queue, durability);
    if (!r->Check(session.ok(), "in-process session")) return;
    pg::PropertyGraph shadow_graph;
    service::GraphAssembler assembler(&shadow_graph);
    core::PgHive shadow(&shadow_graph, options, &pool);
    core::SchemaGraph prev;
    ScopedSpan stream(tracer, "service.session_stream");
    for (size_t k = 0; k < tenant.payloads.size(); ++k) {
      {
        ScopedSpan commit(tracer, "service.session_commit");
        {
          ScopedSpan span(tracer, "service.submit_ingest");
          r->Check((*session)->SubmitIngest(tenant.payloads[k]).ok(),
                   "in-process SubmitIngest");
        }
        ScopedSpan span(tracer, "service.wait_for_diffs");
        auto feed = (*session)->WaitForDiffs(k, kFeedWaitMs);
        r->Check(feed.ok() && !feed->empty(), "in-process WaitForDiffs");
      }
      {
        // The lane's work after the publish: the scheduled checkpoint.
        ScopedSpan span(tracer, "service.checkpoint");
        (*session)->Drain();
      }
      checkpoint_bytes += static_cast<double>(FileSize(durability.state_path));
      payload_bytes += static_cast<double>(tenant.payloads[k].size());

      // Probes: the session's per-batch steps, replayed on a shadow hive.
      pg::GraphBatch batch;
      {
        ScopedSpan span(tracer, "service.assemble");
        r->Check(assembler.ApplyPayload(tenant.payloads[k], &batch).ok(),
                 "probe assemble");
      }
      {
        ScopedSpan span(tracer, "core.process_batch");
        r->Check(shadow.ProcessBatch(batch).ok(), "probe ProcessBatch");
      }
      {
        ScopedSpan span(tracer, "core.render");
        Rendered rendered;
        schema_bytes = static_cast<double>(RenderSnapshotForms(
            shadow.schema(), shadow_graph.vocab(), &rendered));
      }
      {
        ScopedSpan span(tracer, "core.diff");
        core::SchemaDiff diff =
            core::DiffSchemas(prev, shadow.schema(), shadow_graph.vocab());
        core::SerializeSchemaDiffBinary(diff);
        prev = shadow.schema();
      }
      ScopedSpan span(tracer, "core.save_state");
      std::ostringstream state;
      r->Check(shadow.SaveState(state).ok(), "probe SaveState");
      state_bytes = static_cast<double>(state.str().size());
    }
    {
      ScopedSpan span(tracer, "service.write_checkpoint");
      r->Check((*session)->WriteCheckpoint().ok(), "in-process WriteCheckpoint");
    }
    ScopedSpan span(tracer, "service.final_snapshot");
    auto final_snapshot = (*session)->FinalSnapshot();
    r->Check(final_snapshot.ok() && (*final_snapshot)->pgs_strict == daemon_pgs[i],
             tenant.name + ": in-process session gives the daemon's schema");
    feed_bytes += static_cast<double>(FileSize(durability.feed_path));
  }
  if (tracer == nullptr) return;
  auto median_of = [&](const char* name) {
    return Median(tracer->Durations(name));
  };
  const double session_commit = median_of("service.session_commit");
  r->Set("service.ingest_rpc_ms", median_of("service.ingest_rpc"), "ms");
  r->Set("service.feed_rpc_ms", median_of("service.feed_rpc"), "ms");
  r->Set("service.session_commit_ms", session_commit, "ms");
  r->Set("service.wire_share",
         daemon_commit_p50 > 0 ? 1.0 - session_commit / daemon_commit_p50 : 0,
         "ratio");
  r->Set("service.assemble_ms", median_of("service.assemble"), "ms");
  r->Set("service.checkpoint_ms", median_of("service.checkpoint"), "ms");
  r->Set("service.checkpoint_bytes", checkpoint_bytes, "bytes");
  r->Set("service.feed_bytes", feed_bytes, "bytes");
  r->Set("service.write_amp",
         payload_bytes > 0 ? (checkpoint_bytes + feed_bytes) / payload_bytes : 0,
         "ratio");
  r->Set("core.render_ms", median_of("core.render"), "ms");
  r->Set("core.diff_ms", median_of("core.diff"), "ms");
  r->Set("core.save_state_ms", median_of("core.save_state"), "ms");
  r->Set("core.state_bytes", state_bytes, "bytes");
  r->Set("core.schema_bytes", schema_bytes, "bytes");
}

}  // namespace

void RunDaemonStream(const Context& ctx, RunResult* r) {
  const double scale = ctx.smoke ? 0.25 : 2;
  const size_t num_batches = ctx.smoke ? 8 : 64;

  // Set-up: generate both tenants' graphs, write the graph files, build the
  // ingest payloads, start pghived and warm it up with a ping.
  std::vector<double> setup_s;
  std::vector<Tenant> tenants;
  Daemon daemon;
  for (size_t rep = 0; rep < (ctx.trace ? 1 : kSetupRepeats); ++rep) {
    if (daemon.pid() > 0) daemon.Stop();
    const auto start = Clock::now();
    tenants.clear();
    uint64_t seed = ctx.seed;
    for (const auto& spec : {datasets::Cord19Spec(), datasets::IcijSpec()}) {
      Tenant tenant;
      tenant.name = spec.name;
      tenant.dataset = datasets::Generate(spec, scale, seed++);
      tenant.graph_path = ctx.work_dir + "/" + spec.name + ".graph";
      if (!r->Check(pg::SaveGraphFile(tenant.dataset.graph, tenant.graph_path).ok(),
                    "write graph file")) {
        return;
      }
      tenant.payloads = service::BuildIngestPayloads(tenant.dataset.graph,
                                                     num_batches, kSplitSeed);
      for (const std::string& p : tenant.payloads) tenant.payload_bytes += p.size();
      tenants.push_back(std::move(tenant));
    }
    if (!r->Check(daemon.Start(ctx), "start pghived")) return;
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  size_t elements = 0;
  for (const Tenant& t : tenants) {
    elements += t.elements();
    r->Note(t.name, "scale " + FormatDouble(scale, 2) + ": " +
                        std::to_string(t.dataset.graph.num_nodes()) + " nodes, " +
                        std::to_string(t.dataset.graph.num_edges()) + " edges, " +
                        std::to_string(t.payloads.size()) + " payloads, " +
                        std::to_string(t.payload_bytes) + " bytes");
  }

  Samples samples;
  std::vector<Iteration> iterations;
  const auto start = Clock::now();
  for (size_t iter = 0;
       KeepGoing(start, ctx.trace ? 0 : ctx.seconds, iter, kMinIterations);
       ++iter) {
    Iteration it;
    if (!StreamOnce(daemon, tenants, nullptr, r, &it)) break;
    samples.wall_ms.push_back(it.wall_ms);
    samples.cpu_s.push_back(it.cpu_s);
    samples.peak_rss_mb.push_back(it.peak_rss_mb);
    samples.commit_ms.push_back(it.commit_ms);
    samples.read_ms.push_back(it.read_ms);
    iterations.push_back(std::move(it));
  }
  if (iterations.empty()) {
    daemon.Stop();
    return;
  }
  for (size_t i = 1; i < iterations.size(); ++i) {
    r->Check(iterations[i].final_pgs == iterations[0].final_pgs,
             "repeat stream gives the same schemas");
  }

  double traced_wall_ms = 0;
  if (ctx.tracer != nullptr) {
    Iteration traced;
    StreamOnce(daemon, tenants, ctx.tracer, r, &traced);
    traced_wall_ms = traced.wall_ms;
  }
  r->Check(daemon.Stop() == 0, "pghived drains and exits 0 on SIGTERM");

  // Quality and output checks on the first iteration's schemas.
  const Iteration& first = iterations.front();
  double node_f1 = 0, edge_f1 = 0;
  double strict_violations = 0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& t = tenants[i];
    auto schema = core::ParseSchemaBinary(first.final_binary[i]);
    if (r->Check(schema.ok(), t.name + ": binary schema parses")) {
      auto f1 = RecordSchema(t.name, *schema, t.dataset.truth, r);
      node_f1 += f1.first / static_cast<double>(tenants.size());
      edge_f1 += f1.second / static_cast<double>(tenants.size());
    }
    strict_violations += static_cast<double>(
        ValidateSchema(t.name, first.final_pgs[i], t.dataset.graph, r));
    const std::string prefix = ctx.work_dir + "/" + t.name + "-local";
    const int rc = RunProcess({ctx.bin_dir + "/pghive", "discover", "--graph",
                               t.graph_path, "--batches",
                               std::to_string(num_batches), "--threads",
                               std::to_string(ctx.threads), "--out", prefix},
                              ctx.work_dir + "/cli.log");
    std::string local;
    r->Check(rc == 0 && ReadFile(prefix + ".pgs", &local) &&
                 local == first.final_pgs[i],
             t.name + ": streamed schema equals local discover --batches " +
                 std::to_string(num_batches));
  }
  r->Set("core.strict_violations", strict_violations, "count");
  SetEndToEndMetrics(samples, elements, setup_s, {node_f1, edge_f1}, r);

  // The same payloads through an in-process Session: an output check on
  // every run, and the traced per-layer breakdown when tracing.
  ReplaySessions(ctx, tenants, first.final_pgs,
                 r->metrics["commit_ms_p50"].value, r);
  if (ctx.tracer != nullptr) {
    r->Set("trace.overhead_ms", traced_wall_ms - IterationWallMs(samples),
           "ms");
  }
}

}  // namespace perfbench
