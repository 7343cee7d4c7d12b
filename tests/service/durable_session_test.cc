// Daemon-owned durability: a SessionManager given a checkpoint_dir writes
// scheduled "PGHD" snapshots, graph journals and changefeed segment files on
// its own authority, a fresh manager over the same directory restores every
// session under its original id, and subscribers can replay the *full*
// changefeed — including versions evicted from the in-memory backlog —
// byte-identically across the restart. No client save-state/load-state
// anywhere in this file.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/schema_diff.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/session.h"
#include "service/session_manager.h"
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

/// A fresh, empty checkpoint directory unique to the calling test.
std::string FreshCheckpointDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "durable_session_" + name;
  fs::remove_all(dir);
  return dir;
}

SessionManager::Options DurableOptions(const std::string& dir,
                                       uint64_t checkpoint_every = 1,
                                       size_t feed_backlog = 256) {
  SessionManager::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = checkpoint_every;
  options.feed_backlog = feed_backlog;
  return options;
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

TEST(DurableSessionTest, ScheduledCheckpointRestoresAcrossManagers) {
  const size_t batches = 4;
  const std::string expected = UninterruptedSessionPgs(batches);
  ASSERT_FALSE(expected.empty());
  const std::string dir = FreshCheckpointDir("scheduled");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  // Half the stream into a durable manager; the daemon dies (no explicit
  // save, no CheckpointAll — only the every-2-batches scheduled write).
  {
    SessionManager manager(nullptr, DurableOptions(dir, /*checkpoint_every=*/2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    EXPECT_EQ((*session)->id(), "s1");
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    (*session)->Drain();
    EXPECT_TRUE(fs::exists(dir + "/s1.pghd"));
  }

  // The restarted daemon: restore finds s1 under its original id, the
  // remaining batches stream in, and the schema is byte-identical.
  SessionManager manager(nullptr, DurableOptions(dir, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  // Ids continue past everything seen on disk — s1 is never recycled.
  auto fresh = manager.CreateSession({});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->id(), "s2");
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ((*final_snapshot)->pgs_strict, expected);
}

TEST(DurableSessionTest, FinishCheckpointsEvenOffSchedule) {
  const std::string dir = FreshCheckpointDir("finish");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  std::string expected;
  {
    // checkpoint_every=100 never fires on 2 batches; Finish must still
    // write the final snapshot.
    SessionManager manager(nullptr, DurableOptions(dir, 100));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    auto final_snapshot = (*session)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok());
    expected = (*final_snapshot)->pgs_strict;
    EXPECT_TRUE(fs::exists(dir + "/s1.pghd"));
  }

  SessionManager manager(nullptr, DurableOptions(dir, 100));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto snapshot = (*restored)->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->is_final);
  EXPECT_EQ(snapshot->pgs_strict, expected);
}

TEST(DurableSessionTest, FeedServedFromDiskPastTheBacklog) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  // Ground truth: an all-in-memory session with a roomy backlog.
  std::string expected_feed;
  {
    SessionManager manager(nullptr);
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(/*after_version=*/0, 0);
    ASSERT_TRUE(feed.ok());
    expected_feed = *feed;
  }

  // A 2-record window over 5 published versions: 1..3 are long evicted, so
  // serving from version 0 must splice the segment file in front of the
  // in-memory tail — and produce the exact bytes the roomy session buffered.
  const std::string dir = FreshCheckpointDir("disk_feed");
  SessionManager manager(nullptr,
                         DurableOptions(dir, 1, /*feed_backlog=*/2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  ASSERT_TRUE((*session)->FinalSnapshot().ok());

  auto feed = (*session)->WaitForDiffs(0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ(*feed, expected_feed);
  auto records = core::ParseSchemaDiffStream(*feed);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), batches + 1);  // +1 for the Finish publish.
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].version_to, i + 1);
  }

  // Mid-stream subscriptions splice correctly too.
  auto tail = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(tail.ok());
  auto tail_records = core::ParseSchemaDiffStream(*tail);
  ASSERT_TRUE(tail_records.ok());
  ASSERT_EQ(tail_records->size(), batches - 1);
  EXPECT_EQ((*tail_records)[0].version_to, 3u);
}

TEST(DurableSessionTest, FullFeedHistorySurvivesRestartByteIdentically) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("feed_restart");

  std::string before;
  {
    SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(0, 0);
    ASSERT_TRUE(feed.ok());
    before = *feed;
    ASSERT_FALSE(before.empty());
  }

  // After the restart every version predates the (empty) in-memory window,
  // so the whole history comes off disk — and it is the same bytes. This is
  // exactly what protocol v2 clients got OutOfRange for
  // (SessionStateTest.RestoredSessionPrunesOldFeedWindow pins that the
  // non-durable path still does).
  SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto after = (*restored)->WaitForDiffs(0, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, before);

  // And the feed keeps extending seamlessly past the restart... but a
  // finished session has nothing left to publish; resubscribing from the
  // last version is a clean empty poll, not an error.
  auto caught_up = (*restored)->WaitForDiffs(batches + 1, 0);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->empty());
}

TEST(DurableSessionTest, RestartMidStreamExtendsTheSameFeedFile) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("feed_extend");

  std::string ground_truth;
  {
    SessionManager manager(nullptr);
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(0, 0);
    ASSERT_TRUE(feed.ok());
    ground_truth = *feed;
  }

  {
    SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    (*session)->Drain();
  }

  SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  ASSERT_TRUE((*restored)->FinalSnapshot().ok());
  auto feed = (*restored)->WaitForDiffs(0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  // Versions 1-2 written before the restart, 3-5 after: one contiguous
  // history, byte-identical to the uninterrupted session's feed.
  EXPECT_EQ(*feed, ground_truth);
}

TEST(DurableSessionTest, CloseDeletesCheckpointAndFeedFiles) {
  const std::string dir = FreshCheckpointDir("close");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  SessionManager manager(nullptr, DurableOptions(dir, 1, 1));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  ASSERT_TRUE((*session)->FinalSnapshot().ok());
  ASSERT_TRUE(fs::exists(dir + "/s1.pghd"));
  ASSERT_TRUE(fs::exists(dir + "/s1.feed"));
  ASSERT_TRUE(fs::exists(dir + "/s1.journal"));

  ASSERT_TRUE(manager.Close("s1").ok());
  EXPECT_FALSE(fs::exists(dir + "/s1.pghd"));
  EXPECT_FALSE(fs::exists(dir + "/s1.feed"));
  EXPECT_FALSE(fs::exists(dir + "/s1.journal"));
}

TEST(DurableSessionTest, OrphanFeedFileReservesItsSessionId) {
  // A session that published a feed but died before its first snapshot
  // leaves an orphan .feed; its id must not be handed to an unrelated new
  // session, which would inherit the dead session's history.
  const std::string dir = FreshCheckpointDir("orphan");
  fs::create_directories(dir);
  std::ofstream(dir + "/s7.feed", std::ios::binary) << "leftover";

  SessionManager manager(nullptr, DurableOptions(dir));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  EXPECT_EQ(manager.num_sessions(), 0u);  // No snapshot, nothing restored.
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->id(), "s8");

  // An orphan journal (journaled, died before the first checkpoint) reserves
  // its id the same way.
  const std::string journal_dir = FreshCheckpointDir("orphan_journal");
  fs::create_directories(journal_dir);
  std::ofstream(journal_dir + "/s9.journal", std::ios::binary) << "leftover";
  SessionManager journal_manager(nullptr, DurableOptions(journal_dir));
  ASSERT_TRUE(journal_manager.RestoreFromCheckpointDir().ok());
  EXPECT_EQ(journal_manager.num_sessions(), 0u);
  auto next = journal_manager.CreateSession({});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->id(), "s10");
}

TEST(DurableSessionTest, CorruptCheckpointFailsRestoreLoudly) {
  const std::string dir = FreshCheckpointDir("corrupt");
  fs::create_directories(dir);
  std::ofstream(dir + "/s1.pghd", std::ios::binary) << "not a session file";

  SessionManager manager(nullptr, DurableOptions(dir));
  util::Status status = manager.RestoreFromCheckpointDir();
  ASSERT_FALSE(status.ok());
  // The error names the offending file: an operator needs to know which
  // tenant's snapshot is bad before deciding to delete it.
  EXPECT_NE(status.message().find("s1.pghd"), std::string::npos);
}

TEST(DurableSessionTest, TornFeedTailIsDroppedOnRestore) {
  const size_t batches = 3;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("torn");

  {
    SessionManager manager(nullptr, DurableOptions(dir, 1, 1));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    (*session)->Drain();
  }

  // Simulate a torn write: chop the last 5 bytes off the segment file. The
  // restored session must reconcile (drop the torn record) and still serve
  // a clean, contiguous prefix rather than erroring or serving garbage.
  const std::string feed_path = dir + "/s1.feed";
  ASSERT_TRUE(fs::exists(feed_path));
  const auto full_size = fs::file_size(feed_path);
  fs::resize_file(feed_path, full_size - 5);

  SessionManager manager(nullptr, DurableOptions(dir, 1, 1));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  // Version 3's record was torn away and the checkpoint already covers
  // batch 3, so nothing will ever re-publish it: the history has a permanent
  // hole. Subscribers behind the hole get OutOfRange (refetch the schema,
  // resubscribe) — never a feed with a version silently missing.
  auto stale = (*restored)->WaitForDiffs(0, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kOutOfRange);

  // From the checkpointed version onward the feed is clean: Finish
  // publishes version 4 and a subscriber at 3 sees exactly it.
  ASSERT_TRUE((*restored)->FinalSnapshot().ok());
  auto feed = (*restored)->WaitForDiffs(batches, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  auto records = core::ParseSchemaDiffStream(*feed);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].version_to, batches + 1);
}

// --- Graph journal ----------------------------------------------------------
// A scheduled checkpoint holds the hive state and counters; the graph is in
// <id>.journal, one CRC-framed section per committed payload (section id =
// batch sequence). Restore replays the records the checkpoint counts.

/// Bytes of journal records 1..n for these payloads: each is a u32 id, a u64
/// length, the payload and a u32 CRC.
uint64_t JournalPrefixBytes(const std::vector<std::string>& payloads,
                            size_t n) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; ++i) bytes += 4 + 8 + payloads[i].size() + 4;
  return bytes;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Streams the first `streamed` of `payloads` into a fresh durable manager
/// over `dir` (which the manager then leaves behind, as a dead daemon would).
void StreamIntoDir(const std::string& dir,
                   const std::vector<std::string>& payloads, size_t streamed,
                   uint64_t checkpoint_every) {
  SessionManager manager(nullptr, DurableOptions(dir, checkpoint_every));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < streamed; ++i) {
    ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
  }
  (*session)->Drain();
  ASSERT_TRUE((*session)->status().ok());
}

TEST(DurableSessionTest, CheckpointKeepsTheGraphInTheJournal) {
  const size_t batches = 3;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("journal_layout");
  StreamIntoDir(dir, payloads, batches, 1);

  // One record per committed payload, nothing else.
  EXPECT_EQ(fs::file_size(dir + "/s1.journal"),
            JournalPrefixBytes(payloads, batches));
  // The checkpoint is "PGHD" v2 and carries no graph text: it is smaller
  // than the graph it describes.
  const std::string checkpoint = ReadAll(dir + "/s1.pghd");
  ASSERT_GT(checkpoint.size(), 8u);
  EXPECT_EQ(checkpoint.compare(0, 4, "PGHD"), 0);
  EXPECT_EQ(checkpoint[4], 2);
  EXPECT_EQ(checkpoint.find(payloads[0].substr(0, 40)), std::string::npos);
}

TEST(DurableSessionTest, TornAndUncountedJournalRecordsAreDroppedOnRestore) {
  const size_t batches = 4;
  const std::string expected = UninterruptedSessionPgs(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("journal_tail");

  // checkpoint_every=2 over 3 batches: the checkpoint counts 2 records, the
  // journal holds 3. Then a crash tears a fourth record mid-write.
  StreamIntoDir(dir, payloads, 3, /*checkpoint_every=*/2);
  const std::string journal = dir + "/s1.journal";
  ASSERT_EQ(fs::file_size(journal), JournalPrefixBytes(payloads, 3));
  {
    std::ofstream torn(journal, std::ios::binary | std::ios::app);
    torn << "\x04\x00\x00\x00\x90";
  }

  SessionManager manager(nullptr, DurableOptions(dir, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  EXPECT_EQ(fs::file_size(journal), JournalPrefixBytes(payloads, 2));

  // The client resends batch 3 onward; the journal grows back in step.
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ((*final_snapshot)->pgs_strict, expected);
  EXPECT_EQ(fs::file_size(journal), JournalPrefixBytes(payloads, batches));
}

TEST(DurableSessionTest, BrokenCountedJournalFailsRestoreNamingFileAndRecord) {
  const size_t batches = 3;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string pristine = FreshCheckpointDir("journal_broken_src");
  StreamIntoDir(pristine, payloads, batches, 1);
  const std::string journal = ReadAll(pristine + "/s1.journal");
  ASSERT_EQ(journal.size(), JournalPrefixBytes(payloads, batches));

  struct Case {
    const char* name;
    bool remove;         ///< Delete the journal outright.
    size_t keep;         ///< Else: keep this many bytes...
    size_t flip_offset;  ///< ...and flip the low bit here (npos: no flip).
    const char* record;  ///< The record the error must name.
  };
  const size_t record2 = JournalPrefixBytes(payloads, 1);
  const Case cases[] = {
      {"missing", true, 0, std::string::npos, "record 1 of 3"},
      {"short", false, JournalPrefixBytes(payloads, 2), std::string::npos,
       "record 3 of 3"},
      {"torn_inside", false, journal.size() - 3, std::string::npos,
       "record 3 of 3"},
      {"crc", false, journal.size(), record2 + 12 + 5, "record 2 of 3"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshCheckpointDir(std::string("journal_") + c.name);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    if (c.remove) {
      fs::remove(dir + "/s1.journal");
    } else {
      std::string bytes = journal.substr(0, c.keep);
      if (c.flip_offset != std::string::npos) bytes[c.flip_offset] ^= 1;
      WriteAll(dir + "/s1.journal", bytes);
    }
    SessionManager manager(nullptr, DurableOptions(dir));
    util::Status status = manager.RestoreFromCheckpointDir();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("s1.journal"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(c.record), std::string::npos)
        << status.ToString();
  }
}

TEST(DurableSessionTest, SeededJournalBitFlipsAndTruncationsNeverRestoreWrong) {
  // Every byte of this journal is inside the prefix the checkpoint counts,
  // so every flip or cut must fail the restore loudly — never crash, never
  // restore a different graph.
  const size_t batches = 3;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string pristine = FreshCheckpointDir("journal_sweep_src");
  StreamIntoDir(pristine, payloads, batches, 1);
  const std::string journal = ReadAll(pristine + "/s1.journal");
  const std::string checkpoint = ReadAll(pristine + "/s1.pghd");
  ASSERT_FALSE(journal.empty());

  const std::string dir = FreshCheckpointDir("journal_sweep");
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int trial = 0; trial < 96; ++trial) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::string corrupt = journal;
    const size_t offset = static_cast<size_t>((state >> 16) % journal.size());
    if (trial % 3 == 0) {
      corrupt.resize(offset);
    } else {
      corrupt[offset] =
          static_cast<char>(corrupt[offset] ^ (1 << ((state >> 8) % 8)));
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    WriteAll(dir + "/s1.pghd", checkpoint);
    WriteAll(dir + "/s1.journal", corrupt);
    SessionManager manager(nullptr, DurableOptions(dir));
    util::Status status = manager.RestoreFromCheckpointDir();
    EXPECT_FALSE(status.ok()) << "trial " << trial << " offset " << offset;
    EXPECT_NE(status.message().find("s1.journal"), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace pghive::service
