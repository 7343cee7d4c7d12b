// The pattern path against its dense adapters. PgHive vectorizes, chooses
// (b, T), hashes and builds candidates once per structural pattern; the
// dense N-row entry points expand that output through the row -> pattern
// map. Each adapter must equal its expansion exactly, and the pattern forms
// must give what the per-element computation gives: the same adaptive
// choice, the same first-occurrence cluster ids once expanded, and the same
// candidates.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/schema.h"
#include "core/type_extraction.h"
#include "core/vectorizer.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "embed/hash_embedder.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "pg/batch.h"
#include "pg/column_store.h"

namespace pghive::core {
namespace {

void ExpectSameCandidates(const std::vector<CandidateType>& got,
                          const std::vector<CandidateType>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    SCOPED_TRACE("candidate " + std::to_string(c));
    EXPECT_EQ(got[c].labels, want[c].labels);
    EXPECT_EQ(got[c].keys, want[c].keys);
    EXPECT_EQ(got[c].instances, want[c].instances);
    EXPECT_EQ(got[c].instance_count, want[c].instance_count);
    EXPECT_EQ(got[c].key_counts, want[c].key_counts);
    EXPECT_EQ(got[c].pattern_hashes, want[c].pattern_hashes);
    EXPECT_EQ(got[c].endpoints, want[c].endpoints);
  }
}

void ExpectSameChoice(const AdaptiveChoice& got, const AdaptiveChoice& want) {
  EXPECT_EQ(got.mu, want.mu);
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.bucket_length, want.bucket_length);
  EXPECT_EQ(got.num_tables, want.num_tables);
}

// Row i of the result is row row_pattern[i] of `patterns`.
std::vector<float> ExpandedRows(const FeatureMatrix& patterns,
                                const std::vector<uint32_t>& row_pattern) {
  std::vector<float> out;
  for (const uint32_t p : row_pattern) {
    out.insert(out.end(), patterns.row(p), patterns.row(p) + patterns.dim);
  }
  return out;
}

std::vector<std::vector<uint64_t>> Sets(const ElementSetCsr& csr) {
  std::vector<std::vector<uint64_t>> sets;
  for (size_t i = 0; i < csr.num(); ++i) {
    sets.emplace_back(csr.elements.begin() + csr.offsets[i],
                      csr.elements.begin() + csr.offsets[i + 1]);
  }
  return sets;
}

// One side (nodes or edges) of one batch: every dense adapter against the
// expansion of the pattern output, and the pattern-form adaptive choice,
// clustering and candidates against their per-element counterparts.
void CheckSide(bool nodes, pg::PropertyGraph* graph,
               const pg::GraphBatch& batch, Vectorizer* vectorizer,
               Vectorizer* rows) {
  const pg::ColumnStore& cols =
      nodes ? vectorizer->NodeColumns(batch) : vectorizer->EdgeColumns(batch);
  const std::vector<uint32_t>& row_pattern = cols.pattern_ids();
  if (row_pattern.empty()) return;
  const FeatureMatrix patterns = nodes
                                     ? vectorizer->NodePatternFeatures(batch)
                                     : vectorizer->EdgePatternFeatures(batch);
  const FeatureMatrix dense =
      nodes ? vectorizer->NodeFeatures(batch) : vectorizer->EdgeFeatures(batch);
  ASSERT_EQ(patterns.num, cols.num_patterns());
  ASSERT_EQ(dense.num, row_pattern.size());
  EXPECT_EQ(dense.data, ExpandedRows(patterns, row_pattern));
  // The per-element row loops agree with the expansion byte for byte.
  EXPECT_EQ((nodes ? rows->NodeFeatures(batch) : rows->EdgeFeatures(batch)).data,
            dense.data);

  const std::vector<std::vector<uint64_t>> pattern_sets =
      Sets(nodes ? vectorizer->NodePatternSets(batch)
                 : vectorizer->EdgePatternSets(batch));
  std::vector<std::vector<uint64_t>> expanded_sets;
  for (const uint32_t p : row_pattern) expanded_sets.push_back(pattern_sets[p]);
  EXPECT_EQ(Sets(nodes ? vectorizer->NodeSetSpans(batch)
                       : vectorizer->EdgeSetSpans(batch)),
            expanded_sets);

  AdaptiveOptions aopts;
  aopts.seed = 77;
  aopts.min_sample = 40;  // Sample fewer rows than the batch has.
  const size_t labels = graph->vocab().num_labels();
  ExpectSameChoice(
      nodes ? ChooseNodeParams(patterns, row_pattern, labels, aopts)
            : ChooseEdgeParams(patterns, row_pattern, labels, aopts),
      nodes ? ChooseNodeParams(dense, labels, aopts)
            : ChooseEdgeParams(dense, labels, aopts));

  lsh::EuclideanLshParams elsh;
  elsh.bucket_length = 0.7;
  elsh.num_tables = 6;
  for (const lsh::Amplification amp :
       {lsh::Amplification::kAnd, lsh::Amplification::kOr}) {
    SCOPED_TRACE(amp == lsh::Amplification::kAnd ? "and" : "or");
    elsh.amplification = amp;
    lsh::EuclideanLsh hasher(patterns.dim, elsh);
    const lsh::ClusterSet by_pattern =
        hasher.Cluster(patterns.data, patterns.num);
    const lsh::ClusterSet by_row = hasher.Cluster(dense.data, dense.num);
    std::vector<uint32_t> expanded;
    for (const uint32_t p : row_pattern) {
      expanded.push_back(by_pattern.cluster_of(p));
    }
    // Pattern ids follow first rows, so first-occurrence cluster ids agree.
    ASSERT_EQ(expanded, by_row.assignment());
    ExpectSameCandidates(
        nodes ? BuildNodeCandidates(*graph, cols, by_pattern)
              : BuildEdgeCandidates(*graph, cols, by_pattern),
        nodes ? BuildNodeCandidates(*graph, batch, by_row)
              : BuildEdgeCandidates(*graph, batch, by_row,
                                    vectorizer->EdgeEndpointTokens(batch)));
  }

  lsh::MinHashParams minhash;
  minhash.num_hashes = 12;
  minhash.rows_per_band = 3;
  minhash.amplification = lsh::Amplification::kOr;
  lsh::MinHashLsh min_hasher(minhash);
  const lsh::ClusterSet by_pattern = min_hasher.Cluster(pattern_sets);
  const lsh::ClusterSet by_row = min_hasher.Cluster(expanded_sets);
  std::vector<uint32_t> expanded;
  for (const uint32_t p : row_pattern) {
    expanded.push_back(by_pattern.cluster_of(p));
  }
  EXPECT_EQ(expanded, by_row.assignment());
}

TEST(PatternPathTest, DenseAdaptersEqualTheirPatternExpansion) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    datasets::Dataset dataset = datasets::Generate(spec, 0.05, 37);
    embed::HashEmbedder embedder(&dataset.graph.vocab(), 8, 5);
    size_t index = 0;
    for (const pg::GraphBatch& batch :
         pg::SplitIntoBatches(dataset.graph, /*num_batches=*/4, /*seed=*/3)) {
      SCOPED_TRACE("batch " + std::to_string(index++));
      Vectorizer vectorizer(&dataset.graph, &embedder);
      Vectorizer rows(&dataset.graph, &embedder, nullptr, /*columnar=*/false);
      CheckSide(/*nodes=*/true, &dataset.graph, batch, &vectorizer, &rows);
      CheckSide(/*nodes=*/false, &dataset.graph, batch, &vectorizer, &rows);
    }
  }
}

// The label-set token stands for the label set only because stored label
// sets are normalized (pg::NormalizeLabels sorts and dedups them on
// insertion): the same set added in any order is one pattern, one token and
// one pattern hash.
TEST(PatternPathTest, LabelOrderGivesOnePatternAndOnePatternHash) {
  pg::PropertyGraph graph;
  const pg::NodeId a = graph.AddNode({"Person", "Agent"});
  const pg::NodeId b = graph.AddNode({"Agent", "Person"});
  const pg::NodeId c = graph.AddNode({"Agent", "Person", "Agent"});
  for (const pg::NodeId id : {a, b, c}) {
    graph.SetNodeProperty(id, "name", pg::Value("x"));
  }
  const pg::GraphBatch batch = pg::FullBatch(graph);
  const pg::ColumnStore cols = pg::ColumnStore::ForNodes(graph, batch.node_ids);
  EXPECT_EQ(cols.pattern_ids(), (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(cols.tokens()[0], cols.tokens()[1]);
  EXPECT_EQ(cols.tokens()[0], cols.tokens()[2]);

  auto pattern_hash = [&](pg::NodeId id) {
    return NodePattern{graph.node(id).labels, graph.node(id).properties.Keys()}
        .Hash();
  };
  const uint64_t hash = pattern_hash(a);
  EXPECT_EQ(pattern_hash(b), hash);
  EXPECT_EQ(pattern_hash(c), hash);
  const std::vector<CandidateType> candidates =
      BuildNodeCandidates(graph, cols, lsh::ClusterSet({0}));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].pattern_hashes, (std::vector<uint64_t>{hash}));
  EXPECT_EQ(candidates[0].instances, (std::vector<uint64_t>{a, b, c}));
  EXPECT_EQ(candidates[0].instance_count, 3u);
  ExpectSameCandidates(
      candidates,
      BuildNodeCandidates(graph, batch, lsh::ClusterSet({0, 0, 0})));
}

// Patterns compare label sets as label-id vectors, not as joined token
// strings: a label named "A|B" and the set {A, B} share the token "A|B" but
// differ in labels and pattern hash, so they stay two patterns and the
// candidate keeps both sets' evidence.
TEST(PatternPathTest, TokenCollisionStaysTwoPatterns) {
  pg::PropertyGraph graph;
  const pg::NodeId joined = graph.AddNode({"A|B"});
  const pg::NodeId pair = graph.AddNode({"A", "B"});
  const pg::GraphBatch batch = pg::FullBatch(graph);
  const pg::ColumnStore cols = pg::ColumnStore::ForNodes(graph, batch.node_ids);
  EXPECT_EQ(cols.tokens()[0], cols.tokens()[1]);
  EXPECT_EQ(cols.pattern_ids(), (std::vector<uint32_t>{0, 1}));
  const std::vector<CandidateType> candidates =
      BuildNodeCandidates(graph, cols, lsh::ClusterSet({0, 0}));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].pattern_hashes.size(), 2u);
  EXPECT_EQ(candidates[0].labels.size(), 3u);
  EXPECT_EQ(candidates[0].instances, (std::vector<uint64_t>{joined, pair}));
  ExpectSameCandidates(
      candidates, BuildNodeCandidates(graph, batch, lsh::ClusterSet({0, 0})));
}

}  // namespace
}  // namespace pghive::core
