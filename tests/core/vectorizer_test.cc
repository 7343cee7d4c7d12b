#include "core/vectorizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/corpus.h"
#include "embed/hash_embedder.h"
#include "pg/batch.h"

namespace pghive::core {
namespace {

struct Fixture {
  pg::PropertyGraph graph;
  std::unique_ptr<embed::HashEmbedder> embedder;

  Fixture() {
    pg::NodeId bob = graph.AddNode({"Person"});
    graph.SetNodeProperty(bob, "name", pg::Value("Bob"));
    graph.SetNodeProperty(bob, "age", pg::Value(static_cast<int64_t>(44)));
    pg::NodeId alice = graph.AddNode({});
    graph.SetNodeProperty(alice, "name", pg::Value("Alice"));
    pg::NodeId org = graph.AddNode({"Org"});
    pg::EdgeId e = graph.AddEdge(bob, org, {"WORKS_AT"});
    graph.SetEdgeProperty(e, "from", pg::Value(static_cast<int64_t>(2000)));
    embedder = std::make_unique<embed::HashEmbedder>(&graph.vocab(), 4, 1);
  }
};

TEST(VectorizerTest, NodeFeatureDimensions) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  EXPECT_EQ(m.num, 3u);
  // d + K: 4 + 3 distinct keys (name, age, from).
  EXPECT_EQ(m.dim, 4u + f.graph.vocab().num_keys());
}

TEST(VectorizerTest, BinaryBlockMarksPresentKeys) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  const size_t d = 4;
  pg::PropKeyId name = f.graph.vocab().FindKey("name");
  pg::PropKeyId age = f.graph.vocab().FindKey("age");
  // Bob has name + age.
  EXPECT_EQ(m.row(0)[d + name], 1.0f);
  EXPECT_EQ(m.row(0)[d + age], 1.0f);
  // Alice has name only.
  EXPECT_EQ(m.row(1)[d + name], 1.0f);
  EXPECT_EQ(m.row(1)[d + age], 0.0f);
  // Org has nothing.
  EXPECT_EQ(m.row(2)[d + name], 0.0f);
}

TEST(VectorizerTest, UnlabeledNodeHasZeroEmbeddingBlock) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.NodeFeatures(pg::FullBatch(f.graph));
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(m.row(1)[d], 0.0f);  // Alice is unlabeled.
  }
  // Bob's embedding block is non-zero.
  float norm = 0;
  for (size_t d = 0; d < 4; ++d) norm += m.row(0)[d] * m.row(0)[d];
  EXPECT_GT(norm, 0.5f);
}

TEST(VectorizerTest, EdgeFeatureLayout) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto m = vectorizer.EdgeFeatures(pg::FullBatch(f.graph));
  EXPECT_EQ(m.num, 1u);
  EXPECT_EQ(m.dim, 3 * 4 + f.graph.vocab().num_keys());
  // Edge, src and dst blocks are all non-zero (all labeled).
  for (int block = 0; block < 3; ++block) {
    float norm = 0;
    for (size_t d = 0; d < 4; ++d) {
      float x = m.row(0)[block * 4 + d];
      norm += x * x;
    }
    EXPECT_GT(norm, 0.5f) << "block " << block;
  }
  pg::PropKeyId from = f.graph.vocab().FindKey("from");
  EXPECT_EQ(m.row(0)[12 + from], 1.0f);
}

TEST(VectorizerTest, IdenticalPatternsProduceIdenticalVectors) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"T"});
  g.SetNodeProperty(a, "x", pg::Value("1"));
  pg::NodeId b = g.AddNode({"T"});
  g.SetNodeProperty(b, "x", pg::Value("different value"));
  embed::HashEmbedder embedder(&g.vocab(), 4, 2);
  Vectorizer vectorizer(&g, &embedder);
  auto m = vectorizer.NodeFeatures(pg::FullBatch(g));
  for (size_t d = 0; d < m.dim; ++d) {
    EXPECT_EQ(m.row(0)[d], m.row(1)[d]);
  }
}

TEST(VectorizerTest, NodeSetsContainLabelAndKeys) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  auto sets = vectorizer.NodeSets(pg::FullBatch(f.graph));
  ASSERT_EQ(sets.size(), 3u);
  // Bob: label token + 2 keys.
  EXPECT_EQ(sets[0].size(), 3u);
  // Alice: no label token, 1 key.
  EXPECT_EQ(sets[1].size(), 1u);
  // Org: label only.
  EXPECT_EQ(sets[2].size(), 1u);
}

TEST(VectorizerTest, EdgeSetsDistinguishEndpointRoles) {
  // Same label set as source vs as target must produce different elements.
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode({"A"});
  pg::NodeId b = g.AddNode({"B"});
  g.AddEdge(a, b, {"R"});
  g.AddEdge(b, a, {"R"});
  embed::HashEmbedder embedder(&g.vocab(), 4, 3);
  Vectorizer vectorizer(&g, &embedder);
  auto sets = vectorizer.EdgeSets(pg::FullBatch(g));
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_NE(sets[0], sets[1]);
}

// ---- Columnar-vs-row equivalence --------------------------------------
//
// The columnar sweep is an optimization of the row loops, never a semantic
// change: identical feature bytes, identical MinHash element multisets,
// identical endpoint tokens, identical Word2Vec corpora and token ids.
// Those are every input of the pipeline that the data layout could touch,
// so PgHive runs columnar only and the row loops stay here as the
// reference. Pinned on every generated zoo graph so label overlap,
// unlabeled elements and property holes all occur.

TEST(VectorizerEquivalenceTest, ColumnarFeaturesMatchRowFeaturesExactly) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    datasets::Dataset dataset = datasets::Generate(spec, 0.05, 23);
    embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 5);
    pg::GraphBatch batch = pg::FullBatch(dataset.graph);
    Vectorizer row(&dataset.graph, &embedder, nullptr, /*columnar=*/false);
    Vectorizer col(&dataset.graph, &embedder, nullptr, /*columnar=*/true);
    ASSERT_FALSE(row.columnar());
    ASSERT_TRUE(col.columnar());
    FeatureMatrix row_nodes = row.NodeFeatures(batch);
    FeatureMatrix col_nodes = col.NodeFeatures(batch);
    EXPECT_EQ(col_nodes.num, row_nodes.num);
    EXPECT_EQ(col_nodes.dim, row_nodes.dim);
    EXPECT_EQ(col_nodes.data, row_nodes.data);
    FeatureMatrix row_edges = row.EdgeFeatures(batch);
    FeatureMatrix col_edges = col.EdgeFeatures(batch);
    EXPECT_EQ(col_edges.dim, row_edges.dim);
    EXPECT_EQ(col_edges.data, row_edges.data);
    EXPECT_EQ(col.EdgeEndpointTokens(batch), row.EdgeEndpointTokens(batch));
  }
}

TEST(VectorizerEquivalenceTest, SetSpansMatchNestedSetsRowForRow) {
  auto check = [](const std::vector<std::vector<uint64_t>>& sets,
                  const ElementSetCsr& csr) {
    ASSERT_EQ(csr.num(), sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      // Nested sets come out sorted; the CSR emits rows pre-sorted, so the
      // spans must match element for element, not just as multisets.
      std::vector<uint64_t> span(csr.elements.begin() + csr.offsets[i],
                                 csr.elements.begin() + csr.offsets[i + 1]);
      ASSERT_EQ(span, sets[i]) << "row " << i;
    }
  };
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    datasets::Dataset dataset = datasets::Generate(spec, 0.05, 29);
    embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 5);
    pg::GraphBatch batch = pg::FullBatch(dataset.graph);
    Vectorizer row(&dataset.graph, &embedder, nullptr, /*columnar=*/false);
    Vectorizer col(&dataset.graph, &embedder, nullptr, /*columnar=*/true);
    check(row.NodeSets(batch), col.NodeSetSpans(batch));
    check(row.EdgeSets(batch), col.EdgeSetSpans(batch));
  }
}

// PgHive trains Word2Vec on the corpus read from the batch's columns, built
// edge columns first. Batch by batch, on two copies of one graph, that must
// give the row walk's sentences and intern the same token ids in the same
// order, or the embeddings of later batches would drift.
TEST(VectorizerEquivalenceTest, ColumnCorpusMatchesRowCorpusAndTokenIds) {
  auto token_names = [](const pg::Vocabulary& vocab) {
    std::vector<std::string> names;
    for (size_t t = 0; t < vocab.num_tokens(); ++t) {
      names.push_back(vocab.TokenName(static_cast<pg::LabelSetToken>(t)));
    }
    return names;
  };
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    datasets::Dataset row_data = datasets::Generate(spec, 0.05, 31);
    datasets::Dataset col_data = datasets::Generate(spec, 0.05, 31);
    embed::HashEmbedder embedder(&col_data.graph.vocab(), 8, 5);
    std::vector<pg::GraphBatch> batches =
        pg::SplitIntoBatches(row_data.graph, /*num_batches=*/3, /*seed=*/5);
    for (size_t i = 0; i < batches.size(); ++i) {
      embed::LabelCorpus row = embed::BuildLabelCorpus(row_data.graph,
                                                       batches[i]);
      Vectorizer vectorizer(&col_data.graph, &embedder);
      const pg::ColumnStore& edge_cols = vectorizer.EdgeColumns(batches[i]);
      const pg::ColumnStore& node_cols = vectorizer.NodeColumns(batches[i]);
      embed::LabelCorpus col =
          embed::BuildLabelCorpus(col_data.graph, edge_cols, node_cols);
      EXPECT_EQ(col.sentences, row.sentences) << "batch " << i;
      EXPECT_EQ(col.vocab_size, row.vocab_size) << "batch " << i;
      EXPECT_EQ(token_names(col_data.graph.vocab()),
                token_names(row_data.graph.vocab()))
          << "batch " << i;
    }
  }
}

TEST(VectorizerEquivalenceTest, ColumnCachesRebuildWhenBatchChanges) {
  Fixture f;
  Vectorizer vectorizer(&f.graph, f.embedder.get());
  pg::GraphBatch full = pg::FullBatch(f.graph);
  EXPECT_EQ(vectorizer.NodeColumns(full).num_rows(), f.graph.num_nodes());
  pg::GraphBatch partial;
  partial.node_ids = {0};
  EXPECT_EQ(vectorizer.NodeColumns(partial).num_rows(), 1u);
  EXPECT_EQ(vectorizer.NodeColumns(full).num_rows(), f.graph.num_nodes());
}

TEST(MinHashElementTest, UniversesAreDisjoint) {
  EXPECT_NE(MinHashLabelElement(1), MinHashSrcElement(1));
  EXPECT_NE(MinHashSrcElement(1), MinHashDstElement(1));
  EXPECT_NE(MinHashDstElement(1), MinHashKeyElement(1));
  EXPECT_NE(MinHashLabelElement(1), MinHashKeyElement(1));
}

}  // namespace
}  // namespace pghive::core
