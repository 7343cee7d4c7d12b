// The pattern path at every pool size: per-pattern feature rows and MinHash
// sets, their dense expansions, and the schema PgHive discovers from them
// must be byte-identical at 1, 2 and 8 threads. The graph gives every
// element its own pattern so the per-pattern loops span many parallel
// chunks; runs under the `threaded` label so the CI TSan job races them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pghive.h"
#include "core/serialize.h"
#include "core/vectorizer.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/hash_embedder.h"
#include "pg/batch.h"
#include "util/thread_pool.h"

namespace pghive {
namespace {

constexpr size_t kPoolSizes[] = {1, 2, 8};

// Node i carries the key subset i + 1 of 11 keys and edge i the subset
// i + 1 of 12 keys: P = N on both sides.
pg::PropertyGraph ManyPatternGraph() {
  pg::PropertyGraph g;
  const std::vector<std::vector<std::string>> labels = {
      {"Person"}, {"Place"}, {"Person", "Agent"}, {}};
  for (uint32_t i = 0; i < 1500; ++i) {
    const pg::NodeId id = g.AddNode(labels[i % labels.size()]);
    for (uint32_t b = 0; b < 11; ++b) {
      if ((i + 1) >> b & 1) {
        g.SetNodeProperty(id, "k" + std::to_string(b), pg::Value("v"));
      }
    }
  }
  for (uint32_t i = 0; i < 2500; ++i) {
    const pg::EdgeId id =
        g.AddEdge(i % 1500, (i * 7 + 3) % 1500, {i % 3 ? "knows" : "likes"});
    for (uint32_t b = 0; b < 12; ++b) {
      if ((i + 1) >> b & 1) {
        g.SetEdgeProperty(id, "e" + std::to_string(b),
                          pg::Value(static_cast<int64_t>(i)));
      }
    }
  }
  return g;
}

struct Outputs {
  std::vector<float> node_patterns, edge_patterns;
  std::vector<uint64_t> node_sets, edge_sets;
  std::vector<float> node_dense, edge_dense;
  std::vector<uint64_t> node_dense_sets, edge_dense_sets;
};

Outputs Vectorize(util::ThreadPool* pool) {
  pg::PropertyGraph graph = ManyPatternGraph();
  embed::HashEmbedder embedder(&graph.vocab(), 8, 3);
  core::Vectorizer vectorizer(&graph, &embedder, pool);
  const pg::GraphBatch batch = pg::FullBatch(graph);
  Outputs out;
  out.node_patterns = vectorizer.NodePatternFeatures(batch).data;
  out.edge_patterns = vectorizer.EdgePatternFeatures(batch).data;
  out.node_sets = vectorizer.NodePatternSets(batch).elements;
  out.edge_sets = vectorizer.EdgePatternSets(batch).elements;
  out.node_dense = vectorizer.NodeFeatures(batch).data;
  out.edge_dense = vectorizer.EdgeFeatures(batch).data;
  out.node_dense_sets = vectorizer.NodeSetSpans(batch).elements;
  out.edge_dense_sets = vectorizer.EdgeSetSpans(batch).elements;
  EXPECT_EQ(vectorizer.NodeColumns(batch).num_patterns(), graph.num_nodes());
  EXPECT_EQ(vectorizer.EdgeColumns(batch).num_patterns(), graph.num_edges());
  return out;
}

std::string Discover(pg::PropertyGraph graph, core::ClusterMethod method,
                     size_t threads) {
  core::PgHiveOptions options;
  options.method = method;
  options.num_threads = threads;
  core::PgHive hive(&graph, options);
  for (pg::GraphBatch& batch :
       pg::SplitIntoBatches(graph, /*num_batches=*/3, /*seed=*/5)) {
    EXPECT_TRUE(hive.ProcessBatch(std::move(batch)).ok());
  }
  EXPECT_TRUE(hive.Finish().ok());
  return core::SerializePgSchema(hive.schema(), graph.vocab(),
                                 core::SchemaMode::kStrict) +
         core::SerializeXsd(hive.schema(), graph.vocab());
}

TEST(PatternPathDeterminismTest, PatternOutputsIdenticalAtEveryPoolSize) {
  const Outputs serial = Vectorize(nullptr);
  for (const size_t threads : kPoolSizes) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const Outputs got = Vectorize(&pool);
    EXPECT_EQ(got.node_patterns, serial.node_patterns);
    EXPECT_EQ(got.edge_patterns, serial.edge_patterns);
    EXPECT_EQ(got.node_sets, serial.node_sets);
    EXPECT_EQ(got.edge_sets, serial.edge_sets);
    EXPECT_EQ(got.node_dense, serial.node_dense);
    EXPECT_EQ(got.edge_dense, serial.edge_dense);
    EXPECT_EQ(got.node_dense_sets, serial.node_dense_sets);
    EXPECT_EQ(got.edge_dense_sets, serial.edge_dense_sets);
  }
}

TEST(PatternPathDeterminismTest, SchemaBytesIdenticalAtEveryPoolSize) {
  for (const core::ClusterMethod method :
       {core::ClusterMethod::kElsh, core::ClusterMethod::kMinHash}) {
    const std::string many = Discover(ManyPatternGraph(), method, 1);
    const std::string iyp = Discover(
        datasets::Generate(datasets::IypSpec(), 0.2, 7).graph, method, 1);
    for (const size_t threads : kPoolSizes) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(Discover(ManyPatternGraph(), method, threads), many);
      EXPECT_EQ(Discover(datasets::Generate(datasets::IypSpec(), 0.2, 7).graph,
                         method, threads),
                iyp);
    }
  }
}

}  // namespace
}  // namespace pghive
