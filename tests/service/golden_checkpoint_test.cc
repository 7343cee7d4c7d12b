// Golden daemon checkpoint: tests/golden/pole_s004_b4_stop2_v1.{pghd,feed}
// are the s1.pghd and s1.feed a pghived --checkpoint-dir wrote in the
// self-contained "PGHD" v1 layout (graph text inside the snapshot), before
// checkpoints moved the graph into a journal (tests/golden/README.md). A
// checkpoint dir left behind by that build must still restore, resume, and
// finish on the one-shot run's bytes — and the journaled checkpoints the
// resumed session writes from then on must restore too.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "pg/graph_io.h"
#include "service/client.h"
#include "service/session.h"
#include "service/session_manager.h"

namespace pghive::service {
namespace {

namespace fs = std::filesystem;

const std::string kGoldenDir = PGHIVE_GOLDEN_DIR;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

SessionManager::Options CheckpointEveryBatch(const std::string& dir) {
  SessionManager::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  return options;
}

TEST(GoldenTest, SelfContainedCheckpointDirRestoresAndResumesByteIdentically) {
  auto loaded = pg::LoadGraphFile(kGoldenDir + "/pole_s004.graph");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<std::string> payloads =
      BuildIngestPayloads(*loaded, /*num_batches=*/4);
  ASSERT_EQ(payloads.size(), 4u);

  const std::string dir = ::testing::TempDir() + "golden_v1_checkpoint_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(kGoldenDir + "/pole_s004_b4_stop2_v1.pghd", dir + "/s1.pghd");
  fs::copy_file(kGoldenDir + "/pole_s004_b4_stop2_v1.feed", dir + "/s1.feed");
  ASSERT_EQ(ReadFile(dir + "/s1.pghd")[4], 1);  // The v1 version word.

  // First restart: the v1 snapshot restores from its graph text; one more
  // batch then writes a journaled (v2) checkpoint.
  {
    SessionManager manager(nullptr, CheckpointEveryBatch(dir));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.Lookup("s1");
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ((*session)->batches_ingested(), 2u);
    ASSERT_TRUE((*session)->SubmitIngest(payloads[2]).ok());
    (*session)->Drain();
    ASSERT_TRUE((*session)->status().ok())
        << (*session)->status().ToString();
  }
  EXPECT_EQ(ReadFile(dir + "/s1.pghd")[4], 2);
  EXPECT_TRUE(fs::exists(dir + "/s1.journal"));

  // Second restart: the v2 checkpoint replays the journal, whose first
  // record holds the graph the v1 snapshot restored.
  SessionManager manager(nullptr, CheckpointEveryBatch(dir));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.Lookup("s1");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->batches_ingested(), 3u);
  ASSERT_TRUE((*session)->SubmitIngest(payloads[3]).ok());
  auto final_snapshot = (*session)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ((*final_snapshot)->pgs_strict,
            ReadFile(kGoldenDir + "/pole_s004_b4.pgs"));
  // The full changefeed, across both restarts, is the one-shot run's.
  auto feed = (*session)->WaitForDiffs(0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ(*feed, ReadFile(kGoldenDir + "/pole_s004_b4.feed"));
}

}  // namespace
}  // namespace pghive::service
