// Session durability through the daemon's checkpoint path: WriteCheckpoint
// at a batch boundary, restore the checkpoint dir in a fresh manager (a
// restarted pghived), stream the remaining batches, and the final schema
// must be byte-identical to the uninterrupted session's. Plus the schema
// changefeed long-poll semantics and corruption rejection. The scheduled
// checkpoint, journal and feed-segment cases live in
// durable_session_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/schema_diff.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/job_queue.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/binio.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {
namespace {

namespace fs = std::filesystem;

pg::PropertyGraph SocialGraph() {
  pg::PropertyGraph g;
  auto ann = g.AddNode({"Person"});
  g.SetNodeProperty(ann, "name", pg::Value("Ann"));
  g.SetNodeProperty(ann, "age", pg::Value(static_cast<int64_t>(31)));
  auto bo = g.AddNode({"Person"});
  g.SetNodeProperty(bo, "name", pg::Value("Bo"));
  auto cy = g.AddNode({"Person"});
  g.SetNodeProperty(cy, "name", pg::Value("Cy"));
  auto p1 = g.AddNode({"Post"});
  g.SetNodeProperty(p1, "text", pg::Value("hi"));
  auto p2 = g.AddNode({"Post"});
  g.SetNodeProperty(p2, "text", pg::Value("yo"));
  g.AddEdge(ann, bo, {"KNOWS"});
  g.AddEdge(bo, cy, {"KNOWS"});
  g.AddEdge(ann, p1, {"WROTE"});
  g.AddEdge(cy, p2, {"WROTE"});
  return g;
}

std::string UninterruptedSessionPgs(size_t batches) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  EXPECT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  for (const std::string& payload : BuildIngestPayloads(graph, batches)) {
    EXPECT_TRUE((*session)->SubmitIngest(payload).ok());
  }
  auto final_snapshot = (*session)->FinalSnapshot();
  EXPECT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  return final_snapshot.ok() ? (*final_snapshot)->pgs_strict : std::string();
}

/// A fresh, empty checkpoint directory unique to the calling test.
std::string FreshCheckpointDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "session_state_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Durability over `dir` with no scheduled checkpoints: only an explicit
/// WriteCheckpoint (or Finish) writes s<k>.pghd.
SessionManager::Options ExplicitCheckpoints(const std::string& dir) {
  SessionManager::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 0;
  return options;
}

/// Streams the first `streamed` payloads into session s1 of a fresh manager
/// over `dir`, checkpoints it with WriteCheckpoint, and lets the manager die
/// as a stopped daemon would.
void CheckpointAfter(const std::string& dir,
                     const std::vector<std::string>& payloads,
                     size_t streamed) {
  SessionManager manager(nullptr, ExplicitCheckpoints(dir));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ((*session)->id(), "s1");
  for (size_t i = 0; i < streamed; ++i) {
    ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
  }
  util::Status written = (*session)->WriteCheckpoint();
  ASSERT_TRUE(written.ok()) << written.ToString();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(SessionStateTest, SaveAtEveryBoundaryRestoresIdentically) {
  const size_t batches = 3;
  const std::string expected = UninterruptedSessionPgs(batches);
  ASSERT_FALSE(expected.empty());
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  for (size_t at = 1; at <= batches; ++at) {
    SCOPED_TRACE("at " + std::to_string(at));
    const std::string dir = FreshCheckpointDir("boundary");
    CheckpointAfter(dir, payloads, at);

    // The restarted daemon runs its sessions on a pool.
    util::ThreadPool pool(2);
    SessionManager manager(&pool, ExplicitCheckpoints(dir));
    util::Status status = manager.RestoreFromCheckpointDir();
    ASSERT_TRUE(status.ok()) << status.ToString();
    auto restored = manager.Lookup("s1");
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ((*restored)->batches_ingested(), at);
    for (size_t i = at; i < batches; ++i) {
      ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
    }
    auto final_snapshot = (*restored)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
    EXPECT_EQ((*final_snapshot)->pgs_strict, expected);
    EXPECT_EQ((*final_snapshot)->batches, batches);
  }
}

TEST(SessionStateTest, FinishedSessionRestoresFinished) {
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  const std::string dir = FreshCheckpointDir("finished");
  std::string expected;
  {
    SessionManager saver(nullptr, ExplicitCheckpoints(dir));
    ASSERT_TRUE(saver.RestoreFromCheckpointDir().ok());
    auto session = saver.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    auto final_snapshot = (*session)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok());
    expected = (*final_snapshot)->pgs_strict;
    // A checkpoint after Finish describes the same finished session.
    ASSERT_TRUE((*session)->WriteCheckpoint().ok());
  }

  SessionManager restorer(nullptr, ExplicitCheckpoints(dir));
  ASSERT_TRUE(restorer.RestoreFromCheckpointDir().ok());
  auto restored = restorer.Lookup("s1");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto snapshot = (*restored)->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->is_final);
  EXPECT_EQ(snapshot->pgs_strict, expected);
  // A finished session stays finished: further ingest is rejected.
  EXPECT_FALSE((*restored)->SubmitIngest(payloads[0]).ok());
}

TEST(SessionStateTest, RejectsGarbageAndCorruptState) {
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  const std::string pristine = FreshCheckpointDir("corrupt_src");
  CheckpointAfter(pristine, payloads, 1);
  const std::string checkpoint = ReadAll(pristine + "/s1.pghd");
  ASSERT_GT(checkpoint.size(), 8u);

  // Restores `bytes` as s1.pghd beside the pristine journal.
  auto restore = [&](const std::string& name, const std::string& bytes) {
    const std::string dir = FreshCheckpointDir("corrupt_" + name);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    WriteAll(dir + "/s1.pghd", bytes);
    SessionManager manager(nullptr, ExplicitCheckpoints(dir));
    return manager.RestoreFromCheckpointDir();
  };
  ASSERT_TRUE(restore("pristine", checkpoint).ok());
  EXPECT_FALSE(restore("empty", "").ok());
  EXPECT_FALSE(restore("garbage", "not a session file").ok());

  // Truncations and bit flips never restore.
  for (size_t len : {size_t{4}, size_t{10}, checkpoint.size() / 2,
                     checkpoint.size() - 1}) {
    EXPECT_FALSE(restore("truncated", checkpoint.substr(0, len)).ok())
        << "len " << len;
  }
  std::string corrupt = checkpoint;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
  EXPECT_FALSE(restore("flipped", corrupt).ok());

  // A checkpoint's graph is in the journal beside it: without a durability
  // plan there is nothing to replay, so the restore is refused.
  JobQueue queue(nullptr);
  auto detached = Session::CreateFromState("s1", checkpoint, nullptr, &queue);
  ASSERT_FALSE(detached.ok());
  EXPECT_EQ(detached.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SessionStateTest, ChangefeedDeliversDiffsInVersionOrder) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  (*session)->Drain();

  auto feed = (*session)->WaitForDiffs(/*after_version=*/0, /*timeout_ms=*/0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  auto records = core::ParseSchemaDiffStream(*feed);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].version_to, 1u);
  EXPECT_EQ((*records)[1].version_to, 2u);
  EXPECT_EQ((*records)[1].version_from, 1u);
  // The first record introduces types; it must not be empty.
  EXPECT_FALSE((*records)[0].empty());

  // Subscribing from the middle returns only the newer record.
  auto tail = (*session)->WaitForDiffs(1, 0);
  ASSERT_TRUE(tail.ok());
  auto tail_records = core::ParseSchemaDiffStream(*tail);
  ASSERT_TRUE(tail_records.ok());
  ASSERT_EQ(tail_records->size(), 1u);
  EXPECT_EQ((*tail_records)[0].version_to, 2u);

  // Caught up: a zero-timeout poll returns empty, not an error.
  auto empty = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Finish publishes one more version (the final post-processed schema).
  ASSERT_TRUE((*session)->FinalSnapshot().ok());
  auto final_feed = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(final_feed.ok());
  auto final_records = core::ParseSchemaDiffStream(*final_feed);
  ASSERT_TRUE(final_records.ok());
  ASSERT_EQ(final_records->size(), 1u);
  EXPECT_EQ((*final_records)[0].version_to, 3u);
}

TEST(SessionStateTest, NewerVersionWithAppendedSectionRestores) {
  // Same forward-compat policy as the "PGHS" hive snapshot: a newer "PGHD"
  // writer may only append optional sections, so a bumped u32 version word
  // (little-endian, offset 4) plus an unknown trailing section must restore
  // on today's binary and resume byte-identically.
  const size_t batches = 3;
  const std::string expected = UninterruptedSessionPgs(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("future");
  CheckpointAfter(dir, payloads, 1);
  const std::string checkpoint = ReadAll(dir + "/s1.pghd");
  ASSERT_EQ(checkpoint[4], 2);

  // Versions below ours are malformed, not futuristic.
  std::string ancient = checkpoint;
  ancient[4] = 0;
  WriteAll(dir + "/s1.pghd", ancient);
  {
    SessionManager restorer(nullptr, ExplicitCheckpoints(dir));
    EXPECT_FALSE(restorer.RestoreFromCheckpointDir().ok());
  }

  std::string future = checkpoint;
  future[4] = 3;
  util::AppendSection(&future, /*id=*/999, "optional payload from v3");
  WriteAll(dir + "/s1.pghd", future);
  SessionManager restorer(nullptr, ExplicitCheckpoints(dir));
  util::Status status = restorer.RestoreFromCheckpointDir();
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto restored = restorer.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->batches_ingested(), 1u);
  for (size_t i = 1; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ((*final_snapshot)->pgs_strict, expected);
}

TEST(SessionStateTest, RestoredSessionPrunesOldFeedWindow) {
  // Without its feed segment the backlog does not survive a restart: a
  // subscriber resuming from a pre-restart version gets OutOfRange and must
  // refetch the schema.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  const std::string dir = FreshCheckpointDir("no_feed");
  CheckpointAfter(dir, payloads, 1);
  ASSERT_TRUE(fs::remove(dir + "/s1.feed"));

  SessionManager restorer(nullptr, ExplicitCheckpoints(dir));
  ASSERT_TRUE(restorer.RestoreFromCheckpointDir().ok());
  auto restored = restorer.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto stale = (*restored)->WaitForDiffs(/*after_version=*/0, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kOutOfRange);

  // From the restored version onward the feed works again.
  ASSERT_TRUE((*restored)->SubmitIngest(payloads[1]).ok());
  (*restored)->Drain();
  auto fresh = (*restored)->WaitForDiffs(/*after_version=*/1, 0);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto records = core::ParseSchemaDiffStream(*fresh);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].version_to, 2u);
}

}  // namespace
}  // namespace pghive::service
