// ColumnStore is a derived, struct-of-arrays view of the row representation,
// so every test here is an equivalence pin: whatever random rows say, the
// columns must say exactly — each row's key set from the key CSR in
// entries() order, endpoint ids and tokens, and null/overwrite/erase
// semantics. Pattern ids are pinned against a first-seen numbering of the
// (label sets, key set) keys computed from the rows.

#include "pg/column_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "pg/batch.h"

#include "pg/graph.h"
#include "pg/property_map.h"
#include "pg/value.h"
#include "util/rng.h"

namespace pghive::pg {
namespace {

Value RandomValue(util::Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return Value();  // null
    case 1:
      return Value(rng.NextBounded(2) == 0);
    case 2:
      return Value(static_cast<int64_t>(rng.NextBounded(1000)) - 500);
    case 3:
      return Value(rng.NextDouble() * 10.0 - 5.0);
    case 4:
      return Value("s" + std::to_string(rng.NextBounded(50)));
    default:
      return Value(std::to_string(rng.NextBounded(9000)));  // numeric string
  }
}

/// A random graph with overlapping label sets, a shared small key universe,
/// overwritten and erased properties, and some unlabeled/empty elements —
/// the shapes the column builder has to reproduce exactly.
PropertyGraph RandomGraph(uint64_t seed, size_t num_nodes, size_t num_edges) {
  util::Rng rng(seed);
  const std::vector<std::vector<std::string>> label_pool = {
      {}, {"Person"}, {"Person", "Officer"}, {"Account"}, {"Entity", "Org"}};
  PropertyGraph graph;
  for (size_t i = 0; i < num_nodes; ++i) {
    NodeId id = graph.AddNode(label_pool[rng.NextBounded(label_pool.size())]);
    const size_t props = rng.NextBounded(6);
    for (size_t p = 0; p < props; ++p) {
      // Duplicate keys on purpose: later Set calls overwrite earlier ones.
      graph.SetNodeProperty(id, "k" + std::to_string(rng.NextBounded(8)),
                            RandomValue(rng));
    }
    if (props > 0 && rng.NextBounded(4) == 0) {
      // Erase a (possibly absent) key so holes appear mid-universe.
      graph.node(id).properties.Erase(
          static_cast<KeyId>(rng.NextBounded(8)));
    }
  }
  for (size_t i = 0; i < num_edges; ++i) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(num_nodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(num_nodes));
    EdgeId id = rng.NextBounded(5) == 0
                    ? graph.AddEdge(src, dst, {})
                    : graph.AddEdge(src, dst,
                                    {"rel" + std::to_string(rng.NextBounded(3))});
    const size_t props = rng.NextBounded(4);
    for (size_t p = 0; p < props; ++p) {
      graph.SetEdgeProperty(id, "k" + std::to_string(rng.NextBounded(8)),
                            RandomValue(rng));
    }
  }
  return graph;
}

std::vector<NodeId> AllNodes(const PropertyGraph& graph) {
  std::vector<NodeId> ids(graph.num_nodes());
  for (NodeId i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

std::vector<EdgeId> AllEdges(const PropertyGraph& graph) {
  std::vector<EdgeId> ids(graph.num_edges());
  for (EdgeId i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

/// Row `row`'s key set as the key CSR records it.
std::vector<KeyId> PresentKeys(const ColumnStore& cols, size_t row) {
  const auto begin = cols.key_ids().begin();
  return std::vector<KeyId>(begin + cols.key_offsets()[row],
                            begin + cols.key_offsets()[row + 1]);
}

TEST(ColumnStoreTest, NodeRowsRoundTripThroughColumns) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    PropertyGraph graph = RandomGraph(seed, 120, 0);
    ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
    ASSERT_EQ(cols.num_rows(), graph.num_nodes());
    EXPECT_EQ(cols.ids(), AllNodes(graph));
    for (size_t row = 0; row < cols.num_rows(); ++row) {
      EXPECT_EQ(PresentKeys(cols, row), graph.node(row).properties.Keys())
          << "seed " << seed << " row " << row;
    }
  }
}

TEST(ColumnStoreTest, EdgeRowsRoundTripThroughColumns) {
  PropertyGraph graph = RandomGraph(6, 40, 150);
  ColumnStore cols = ColumnStore::ForEdges(graph, AllEdges(graph));
  ASSERT_EQ(cols.num_rows(), graph.num_edges());
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    const Edge& e = graph.edge(row);
    EXPECT_EQ(PresentKeys(cols, row), e.properties.Keys());
    EXPECT_EQ(cols.src_ids()[row], e.src);
    EXPECT_EQ(cols.dst_ids()[row], e.dst);
    EXPECT_EQ(cols.src_tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(e.src).labels));
    EXPECT_EQ(cols.dst_tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(e.dst).labels));
  }
}

TEST(ColumnStoreTest, KeyCsrMatchesRowKeyOrder) {
  PropertyGraph graph = RandomGraph(8, 100, 0);
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  ASSERT_EQ(cols.key_offsets().size(), cols.num_rows() + 1);
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    const std::vector<KeyId> want = graph.node(row).properties.Keys();
    std::vector<KeyId> got(
        cols.key_ids().begin() + cols.key_offsets()[row],
        cols.key_ids().begin() + cols.key_offsets()[row + 1]);
    EXPECT_EQ(got, want) << "row " << row;  // entries() is sorted by key.
  }
}

TEST(ColumnStoreTest, OverwriteEraseAndNullSemantics) {
  PropertyGraph graph;
  NodeId a = graph.AddNode({"A"});
  NodeId b = graph.AddNode({"B"});
  NodeId c = graph.AddNode({});
  graph.SetNodeProperty(a, "age", Value(static_cast<int64_t>(30)));
  graph.SetNodeProperty(a, "age", Value("thirty"));  // overwrite, new type
  graph.SetNodeProperty(a, "gone", Value(true));
  graph.SetNodeProperty(b, "age", Value(static_cast<int64_t>(40)));
  graph.SetNodeProperty(b, "hole", Value());  // explicit null
  ASSERT_TRUE(graph.node(a).properties.Erase(
      graph.node(a).properties.Keys()[1]));  // erase "gone"

  ColumnStore cols = ColumnStore::ForNodes(graph, {a, b, c});
  const KeyId age = graph.vocab().FindKey("age");
  const KeyId hole = graph.vocab().FindKey("hole");
  // "gone" was erased before the build: no row carries it. The overwritten
  // key stays present once, whatever its new value type, and a key stored
  // with a null value is present.
  EXPECT_EQ(PresentKeys(cols, 0), (std::vector<KeyId>{age}));
  EXPECT_EQ(PresentKeys(cols, 1), (std::vector<KeyId>{age, hole}));
  EXPECT_TRUE(PresentKeys(cols, 2).empty());
  for (size_t row = 0; row < 3; ++row) {
    EXPECT_EQ(PresentKeys(cols, row),
              graph.node(cols.ids()[row]).properties.Keys())
        << row;
  }
  EXPECT_EQ(cols.key_offsets()[3], cols.key_offsets()[2]);
}

TEST(ColumnStoreTest, EmptyAndValuelessStores) {
  PropertyGraph graph = RandomGraph(17, 20, 10);
  ColumnStore empty = ColumnStore::ForNodes(graph, {});
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.key_offsets(), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(empty.key_ids().empty());

  // A store holds no values, yet its per-key presence counts are exact.
  ColumnStore lean = ColumnStore::ForNodes(graph, AllNodes(graph));
  std::vector<size_t> got(graph.vocab().num_keys(), 0);
  for (const KeyId key : lean.key_ids()) ++got[key];
  for (KeyId key = 0; key < got.size(); ++key) {
    size_t want = 0;
    for (size_t row = 0; row < lean.num_rows(); ++row) {
      if (graph.node(row).properties.Has(key)) ++want;
    }
    EXPECT_EQ(got[key], want) << "key " << key;
  }
}

TEST(ColumnStoreTest, TokensMatchRowOrderInterning) {
  PropertyGraph graph = RandomGraph(19, 60, 80);
  ColumnStore node_cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  for (size_t row = 0; row < node_cols.num_rows(); ++row) {
    EXPECT_EQ(node_cols.tokens()[row],
              graph.vocab().TokenForLabelSet(graph.node(row).labels));
  }
  ColumnStore edge_cols = ColumnStore::ForEdges(graph, AllEdges(graph));
  for (size_t row = 0; row < edge_cols.num_rows(); ++row) {
    EXPECT_EQ(edge_cols.tokens()[row],
              graph.vocab().TokenForLabelSet(graph.edge(row).labels));
  }
}

// Pattern ids number the distinct (token, src token, dst token, key set)
// keys of one store densely in first-seen row order; RandomGraph's label
// names hold no '|', so equal tokens mean equal label sets here. Every
// batch's store numbers its own rows from 0.
TEST(ColumnStoreTest, PatternIdsAreDenseFirstSeenAndPerBatch) {
  PropertyGraph graph = RandomGraph(21, 150, 400);
  using Key = std::tuple<LabelSetToken, LabelSetToken, LabelSetToken,
                         std::vector<KeyId>>;
  auto check = [](const ColumnStore& cols, bool edges) {
    std::map<Key, uint32_t> first_seen;
    std::vector<uint32_t> want_ids;
    std::vector<uint32_t> want_rows;
    for (size_t row = 0; row < cols.num_rows(); ++row) {
      const Key key{cols.tokens()[row],
                    edges ? cols.src_tokens()[row] : kNoToken,
                    edges ? cols.dst_tokens()[row] : kNoToken,
                    std::vector<KeyId>(
                        cols.key_ids().begin() + cols.key_offsets()[row],
                        cols.key_ids().begin() + cols.key_offsets()[row + 1])};
      const auto [it, fresh] = first_seen.try_emplace(
          key, static_cast<uint32_t>(first_seen.size()));
      if (fresh) want_rows.push_back(static_cast<uint32_t>(row));
      want_ids.push_back(it->second);
    }
    EXPECT_EQ(cols.pattern_ids(), want_ids);
    EXPECT_EQ(cols.pattern_rows(), want_rows);
    EXPECT_EQ(cols.num_patterns(), first_seen.size());
    // Folding happens: the random graph repeats patterns within a batch.
    EXPECT_LT(cols.num_patterns(), cols.num_rows());
  };
  const std::vector<GraphBatch> batches =
      SplitIntoBatches(graph, /*num_batches=*/4, /*seed=*/3);
  ASSERT_EQ(batches.size(), 4u);
  for (const GraphBatch& batch : batches) {
    check(ColumnStore::ForEdges(graph, batch.edge_ids), /*edges=*/true);
    check(ColumnStore::ForNodes(graph, batch.node_ids), /*edges=*/false);
  }
  EXPECT_TRUE(ColumnStore::ForNodes(graph, {}).pattern_ids().empty());
  EXPECT_EQ(ColumnStore::ForNodes(graph, {}).num_patterns(), 0u);
}

}  // namespace
}  // namespace pghive::pg
