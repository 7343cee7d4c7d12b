// Discovery output at the two extremes of pattern folding, pinned as FNV-1a
// digests: a graph where every element has its own structural pattern
// (P = N, every key set unique) and one where all nodes and all edges share
// one (P = 1). The pipeline clusters, hashes and builds candidates once per
// pattern; these digests were recorded with the per-element pipeline that
// preceded it, so they hold the pattern path to the same bytes at both ends,
// for ELSH under AND and OR amplification and for MinHash.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pghive.h"
#include "core/serialize.h"
#include "pg/batch.h"
#include "pg/graph.h"

namespace pghive::core {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The keys named by the set bits of `bits`, as `prefix<bit>`.
void SetKeyBits(pg::PropertyGraph* g, bool node, uint64_t id,
                const std::string& prefix, uint32_t bits) {
  for (uint32_t b = 0; b < 7; ++b) {
    if ((bits >> b & 1) == 0) continue;
    const pg::Value value(static_cast<int64_t>(id * 10 + b));
    const std::string key = prefix + std::to_string(b);
    if (node) {
      g->SetNodeProperty(id, key, value);
    } else {
      g->SetEdgeProperty(id, key, value);
    }
  }
}

// P = N: node i carries the key subset i + 1 of k0..k6 and edge i the subset
// i + 1 of e0..e6, so no two nodes and no two edges share a pattern.
pg::PropertyGraph UniquePatternGraph() {
  pg::PropertyGraph g;
  const std::vector<std::vector<std::string>> labels = {
      {"Person"}, {"Place"}, {"Person", "Agent"}, {}};
  for (uint32_t i = 0; i < 120; ++i) {
    const pg::NodeId id = g.AddNode(labels[i % labels.size()]);
    SetKeyBits(&g, /*node=*/true, id, "k", i + 1);
  }
  for (uint32_t i = 0; i < 110; ++i) {
    const pg::EdgeId id =
        g.AddEdge(i % 120, (i * 7 + 3) % 120,
                  i % 9 == 0 ? std::vector<std::string>{}
                             : std::vector<std::string>{i % 2 ? "knows"
                                                               : "visits"});
    SetKeyBits(&g, /*node=*/false, id, "e", i + 1);
  }
  return g;
}

// P = 1 on both sides: one label set and key set for every node, one label,
// endpoint pair and key set for every edge.
pg::PropertyGraph SinglePatternGraph() {
  pg::PropertyGraph g;
  for (uint32_t i = 0; i < 90; ++i) {
    const pg::NodeId id = g.AddNode({"Person"});
    SetKeyBits(&g, /*node=*/true, id, "k", 0x5);
  }
  for (uint32_t i = 0; i < 160; ++i) {
    const pg::EdgeId id = g.AddEdge(i % 90, (i * 13 + 1) % 90, {"knows"});
    SetKeyBits(&g, /*node=*/false, id, "e", 0x3);
  }
  return g;
}

// "<pgs> <xsd> <binary> <assignments>" digests of one discovery run.
std::string Discover(pg::PropertyGraph graph, ClusterMethod method,
                     lsh::Amplification amplification, size_t batches) {
  PgHiveOptions options;
  options.method = method;
  options.amplification = amplification;
  options.num_threads = 2;
  PgHive hive(&graph, options);
  if (batches == 1) {
    EXPECT_TRUE(hive.Run().ok());
  } else {
    for (pg::GraphBatch& batch :
         pg::SplitIntoBatches(graph, batches, /*seed=*/5)) {
      EXPECT_TRUE(hive.ProcessBatch(std::move(batch)).ok());
    }
    EXPECT_TRUE(hive.Finish().ok());
  }
  std::string assignments;
  for (uint32_t t : hive.NodeAssignment()) {
    assignments += std::to_string(t) + ",";
  }
  assignments += ";";
  for (uint32_t t : hive.EdgeAssignment()) {
    assignments += std::to_string(t) + ",";
  }
  char buf[96];
  std::snprintf(
      buf, sizeof(buf), "%016llx %016llx %016llx %016llx",
      static_cast<unsigned long long>(Fnv1a64(SerializePgSchema(
          hive.schema(), graph.vocab(), SchemaMode::kStrict))),
      static_cast<unsigned long long>(
          Fnv1a64(SerializeXsd(hive.schema(), graph.vocab()))),
      static_cast<unsigned long long>(
          Fnv1a64(SerializeSchemaBinary(hive.schema()))),
      static_cast<unsigned long long>(Fnv1a64(assignments)));
  return buf;
}

struct Case {
  const char* name;
  ClusterMethod method;
  lsh::Amplification amplification;
  size_t batches;
  const char* unique_patterns;  // Digests on UniquePatternGraph().
  const char* single_pattern;   // Digests on SinglePatternGraph().
};

constexpr lsh::Amplification kAnd = lsh::Amplification::kAnd;
constexpr lsh::Amplification kOr = lsh::Amplification::kOr;

const Case kCases[] = {
    {"elsh-and-1", ClusterMethod::kElsh, kAnd, 1,
     "087bb2dda4d353af 2d4d9f29247f192f d30934bb7991f3d7 27ca575362ae1177",
     "f3f1218bf9921bf7 e899db3c87f35586 0b9d09e9ae983708 416b85f847dc4c3a"},
    {"elsh-and-3", ClusterMethod::kElsh, kAnd, 3,
     "3e644bfe2efd211f edb10ff847eab5f3 71f99170d4225173 96b2ba70a7924230",
     "f3f1218bf9921bf7 e899db3c87f35586 21b7a234cf5edf08 416b85f847dc4c3a"},
    {"elsh-or-1", ClusterMethod::kElsh, kOr, 1,
     "171a20d3f25058d5 a834337946c3a7b4 541b0ed3746ced42 2f9fc906996bf89a",
     "f3f1218bf9921bf7 e899db3c87f35586 0b9d09e9ae983708 416b85f847dc4c3a"},
    {"elsh-or-3", ClusterMethod::kElsh, kOr, 3,
     "232960e0d5c289dd a834337946c3a7b4 5ed2987bf7088f52 2f9fc906996bf89a",
     "f3f1218bf9921bf7 e899db3c87f35586 21b7a234cf5edf08 416b85f847dc4c3a"},
    {"minhash-and-1", ClusterMethod::kMinHash, kAnd, 1,
     "5693513c5511697b 3c8d6ea2cb4a874f 3dbedfabe3161943 1a3471a4f011d519",
     "f3f1218bf9921bf7 e899db3c87f35586 0b9d09e9ae983708 416b85f847dc4c3a"},
    {"minhash-and-3", ClusterMethod::kMinHash, kAnd, 3,
     "3e644bfe2efd211f edb10ff847eab5f3 5363a419b5fa0c33 96b2ba70a7924230",
     "f3f1218bf9921bf7 e899db3c87f35586 21b7a234cf5edf08 416b85f847dc4c3a"},
    {"minhash-or-1", ClusterMethod::kMinHash, kOr, 1,
     "f9e16a5652df084c a49613865eefd85e e78d6b773ecf7657 adc2406e968e1542",
     "f3f1218bf9921bf7 e899db3c87f35586 0b9d09e9ae983708 416b85f847dc4c3a"},
    {"minhash-or-3", ClusterMethod::kMinHash, kOr, 3,
     "100e9834c7c0303b 61ae102056ef2a91 7af159bdedb14ce5 acb0a5008f0778b5",
     "f3f1218bf9921bf7 e899db3c87f35586 21b7a234cf5edf08 416b85f847dc4c3a"},
};

TEST(PatternBytesTest, EveryElementItsOwnPatternKeepsTheBytes) {
  for (const Case& c : kCases) {
    EXPECT_EQ(Discover(UniquePatternGraph(), c.method, c.amplification,
                       c.batches),
              c.unique_patterns)
        << c.name;
  }
}

TEST(PatternBytesTest, OnePatternPerSideKeepsTheBytes) {
  for (const Case& c : kCases) {
    EXPECT_EQ(Discover(SinglePatternGraph(), c.method, c.amplification,
                       c.batches),
              c.single_pattern)
        << c.name;
  }
}

}  // namespace
}  // namespace pghive::core
