// Golden outputs: the discovered schema bytes are pinned, not just compared
// across execution plans. tests/golden/schema_digests.txt holds an FNV-1a-64
// digest of every rendered form of the schema (strict and loose .pgs, .xsd,
// DescribeSchema, the PGHB binary and the full-schema PGHF diff record) for
// every zoo dataset x {ELSH, MinHash} x {1, 4} batches at scale 0.04 (where
// Word2Vec stays finite), plus one of the input graph's SaveGraphText bytes,
// which pins the graph-text writer. A change that alters discovery output on purpose
// re-records the table as an explicit, reviewed step:
//
//   PGHIVE_RECORD_GOLDEN=1 ./build/tests/pghive_core_tests
//       --gtest_filter='GoldenTest.*'
//
// The directory also holds a PGHS snapshot written by an older build that
// still had in-process sharding and the row data plane (see
// tests/golden/README.md); it must keep restoring and resume to the same
// bytes.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pghive.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph_io.h"

namespace pghive::core {
namespace {

const std::string kGoldenDir = PGHIVE_GOLDEN_DIR;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// One digest per rendered form, in the column order of the table file.
constexpr const char* kColumns[] = {"pgs",    "xsd",  "pgs_loose", "describe",
                                    "binary", "diff", "graph_text"};
using Digest = std::array<std::string, std::size(kColumns)>;

// One case of the table, as its line key: "<dataset> <method> <batches>".
Digest DiscoverDigest(const datasets::DatasetSpec& spec, ClusterMethod method,
                      size_t num_batches) {
  datasets::Dataset dataset =
      datasets::Generate(spec, /*scale=*/0.04, /*seed=*/42);
  const std::string graph_text = pg::SaveGraphText(dataset.graph);
  PgHiveOptions options;
  options.method = method;
  options.num_threads = 2;
  PgHive hive(&dataset.graph, options);
  if (num_batches == 1) {
    EXPECT_TRUE(hive.Run().ok()) << spec.name;
  } else {
    for (pg::GraphBatch& batch :
         pg::SplitIntoBatches(dataset.graph, num_batches, /*seed=*/5)) {
      EXPECT_TRUE(hive.ProcessBatch(std::move(batch)).ok()) << spec.name;
    }
    EXPECT_TRUE(hive.Finish().ok()) << spec.name;
  }
  const SchemaGraph& schema = hive.schema();
  const pg::Vocabulary& vocab = dataset.graph.vocab();
  return {
      Hex(Fnv1a64(SerializePgSchema(schema, vocab, SchemaMode::kStrict))),
      Hex(Fnv1a64(SerializeXsd(schema, vocab))),
      Hex(Fnv1a64(SerializePgSchema(schema, vocab, SchemaMode::kLoose))),
      Hex(Fnv1a64(DescribeSchema(schema, vocab))),
      Hex(Fnv1a64(SerializeSchemaBinary(schema))),
      Hex(Fnv1a64(SerializeSchemaDiffBinary(
          DiffSchemas(SchemaGraph(), schema, vocab)))),
      Hex(Fnv1a64(graph_text))};
}

std::map<std::string, Digest> ComputeTable() {
  std::map<std::string, Digest> table;
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    for (ClusterMethod method : {ClusterMethod::kElsh, ClusterMethod::kMinHash}) {
      for (size_t batches : {size_t{1}, size_t{4}}) {
        const std::string key =
            spec.name + " " +
            (method == ClusterMethod::kElsh ? "elsh" : "minhash") + " " +
            std::to_string(batches);
        table[key] = DiscoverDigest(spec, method, batches);
      }
    }
  }
  return table;
}

std::map<std::string, Digest> ReadTable(const std::string& path) {
  std::map<std::string, Digest> table;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, method, batches;
    Digest digest;
    fields >> name >> method >> batches;
    for (std::string& column : digest) fields >> column;
    table[name + " " + method + " " + batches] = digest;
  }
  return table;
}

TEST(GoldenTest, SchemaDigestsMatchOnEveryZooDataset) {
  const std::string path = kGoldenDir + "/schema_digests.txt";
  std::map<std::string, Digest> actual = ComputeTable();
  if (std::getenv("PGHIVE_RECORD_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << "# dataset method batches";
    for (const char* column : kColumns) out << " " << column << "_fnv1a64";
    out << "\n# zoo scale 0.04, generator seed 42, batch split seed 5\n";
    for (const auto& [key, digest] : actual) {
      out << key;
      for (const std::string& column : digest) out << " " << column;
      out << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "recorded " << actual.size() << " digests to " << path;
  }
  std::map<std::string, Digest> expected = ReadTable(path);
  ASSERT_EQ(expected.size(), actual.size()) << path;
  for (const auto& [key, digest] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no such case: " << key;
    for (size_t c = 0; c < digest.size(); ++c) {
      EXPECT_FALSE(digest[c].empty()) << key << " lacks " << kColumns[c];
      EXPECT_EQ(it->second[c], digest[c]) << key << " (" << kColumns[c] << ")";
    }
  }
}

// The fixture was written with `pghive discover --batches 4 --stop-after 2`
// under the old sharded, row-plane execution plan. Its options section still
// carries those two plan fields; today's reader must discard them, restore,
// and finish on the schema the old build wrote for the uninterrupted run.
TEST(GoldenTest, OldShardedRowPlaneSnapshotResumesByteIdentically) {
  auto loaded = pg::LoadGraphFile(kGoldenDir + "/pole_s004.graph");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  pg::PropertyGraph graph = std::move(loaded).value();
  const std::string snapshot =
      ReadFile(kGoldenDir + "/pole_s004_b4_shards4_row.pghs");
  ASSERT_TRUE(ReadSnapshotOptions(snapshot).ok());

  PgHiveOptions options;
  options.num_threads = 2;
  PgHive hive(&graph, options);
  std::istringstream source(snapshot);
  auto restored = hive.RestoreState(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, 2u);
  auto batches = pg::SplitIntoBatches(graph, /*num_batches=*/4, /*seed=*/1);
  for (size_t i = static_cast<size_t>(*restored); i < batches.size(); ++i) {
    ASSERT_TRUE(hive.ProcessBatch(batches[i]).ok());
  }
  ASSERT_TRUE(hive.Finish().ok());
  EXPECT_EQ(SerializePgSchema(hive.schema(), graph.vocab(),
                              SchemaMode::kStrict),
            ReadFile(kGoldenDir + "/pole_s004_b4.pgs"));
}

}  // namespace
}  // namespace pghive::core
