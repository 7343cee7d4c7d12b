// ColumnStore is a derived, struct-of-arrays view of the row representation,
// so every test here is an equivalence pin: whatever random rows say, the
// columns must say exactly — each row's key set rebuilt from the presence
// bitmaps, CSR key order vs entries() order, endpoint ids and tokens,
// null/overwrite/erase semantics, and the FillBinaryBlock sweep against the
// naive per-row loop.

#include "pg/column_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

/// Row `row`'s key set as the presence bitmaps record it, ascending.
std::vector<KeyId> PresentKeys(const ColumnStore& cols, size_t row) {
  std::vector<KeyId> keys;
  for (const PropertyColumn& col : cols.columns()) {
    if (col.present.Test(row)) keys.push_back(col.key);
  }
  return keys;
}

TEST(PresenceBitmapTest, ForEachSetHonorsRangeBoundaries) {
  util::Rng rng(11);
  const size_t rows = 200;
  PresenceBitmap bitmap(rows);
  std::vector<bool> naive(rows, false);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.NextBounded(2) == 0) {
      bitmap.Set(i);
      naive[i] = true;
    }
  }
  // Ranges chosen to hit word-aligned, word-straddling, single-word and
  // empty cases.
  const std::pair<size_t, size_t> ranges[] = {
      {0, rows}, {0, 0},   {0, 1},    {0, 63},   {0, 64},  {1, 64},
      {63, 65},  {64, 64}, {64, 128}, {65, 127}, {100, 101}, {130, rows}};
  for (size_t i = 0; i < rows; ++i) EXPECT_EQ(bitmap.Test(i), naive[i]) << i;
  for (const auto& [lo, hi] : ranges) {
    std::vector<size_t> got, want;
    bitmap.ForEachSet(lo, hi, [&](size_t row) { got.push_back(row); });
    for (size_t i = lo; i < hi; ++i) {
      if (naive[i]) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "[" << lo << ", " << hi << ")";
  }
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

TEST(ColumnStoreTest, ColumnsSortedByKeyAndPresenceExact) {
  PropertyGraph graph = RandomGraph(9, 150, 0);
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  ASSERT_FALSE(cols.columns().empty());
  for (size_t c = 1; c < cols.columns().size(); ++c) {
    EXPECT_LT(cols.columns()[c - 1].key, cols.columns()[c].key);
  }
  for (const PropertyColumn& col : cols.columns()) {
    // Presence bits reproduce exactly the rows carrying the key, null
    // values included.
    ASSERT_EQ(col.present.rows(), cols.num_rows());
    bool carried = false;
    for (size_t row = 0; row < cols.num_rows(); ++row) {
      const bool has = graph.node(row).properties.Has(col.key);
      EXPECT_EQ(col.present.Test(row), has) << "key " << col.key;
      carried |= has;
    }
    EXPECT_TRUE(carried) << "column for a key no row carries: " << col.key;
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
  // "gone" was erased before the build: no row carries it, so no column.
  ASSERT_EQ(cols.columns().size(), 2u);

  // The overwritten key stays present once, whatever its new value type.
  const PropertyColumn& age = cols.columns()[0];
  EXPECT_TRUE(age.present.Test(0));
  EXPECT_TRUE(age.present.Test(1));
  EXPECT_FALSE(age.present.Test(2));

  // A key stored with a null value is present.
  const PropertyColumn& hole = cols.columns()[1];
  EXPECT_FALSE(hole.present.Test(0));
  EXPECT_TRUE(hole.present.Test(1));

  // The CSR and the bitmaps agree on every row, including the erased key's
  // absence and the empty row.
  for (size_t row = 0; row < 3; ++row) {
    const std::vector<KeyId> want =
        graph.node(cols.ids()[row]).properties.Keys();
    EXPECT_EQ(PresentKeys(cols, row), want) << row;
    EXPECT_EQ(cols.key_offsets()[row + 1] - cols.key_offsets()[row],
              want.size());
  }
  EXPECT_EQ(cols.key_offsets()[3], cols.key_offsets()[2]);
}

TEST(ColumnStoreTest, FillBinaryBlockMatchesNaiveRowSweep) {
  PropertyGraph graph = RandomGraph(13, 230, 0);
  ColumnStore cols = ColumnStore::ForNodes(graph, AllNodes(graph));
  const size_t num = cols.num_rows();
  const size_t max_key = 5;  // Smaller than the key universe on purpose.
  const size_t offset = 3, stride = offset + max_key + 2;
  // Chunked exactly like the vectorizer's ParallelFor consumption.
  for (size_t lo = 0; lo < num; lo += 64) {
    const size_t hi = std::min(num, lo + 64);
    std::vector<float> got((hi - lo) * stride, 0.0f);
    cols.FillBinaryBlock(lo, hi, max_key, got.data(), stride, offset);
    std::vector<float> want((hi - lo) * stride, 0.0f);
    for (size_t row = lo; row < hi; ++row) {
      for (const auto& [key, value] : graph.node(row).properties.entries()) {
        if (key < max_key) want[(row - lo) * stride + offset + key] = 1.0f;
      }
    }
    EXPECT_EQ(got, want) << "chunk [" << lo << ", " << hi << ")";
  }
}

TEST(ColumnStoreTest, EmptyAndValuelessStores) {
  PropertyGraph graph = RandomGraph(17, 20, 10);
  ColumnStore empty = ColumnStore::ForNodes(graph, {});
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_TRUE(empty.columns().empty());
  std::vector<float> untouched(8, -1.0f);
  empty.FillBinaryBlock(0, 0, 4, untouched.data(), 8, 0);
  EXPECT_EQ(untouched, std::vector<float>(8, -1.0f));

  // A store holds no values, yet its presence counts are exact.
  ColumnStore lean = ColumnStore::ForNodes(graph, AllNodes(graph));
  for (const PropertyColumn& col : lean.columns()) {
    size_t want = 0;
    for (size_t row = 0; row < lean.num_rows(); ++row) {
      if (graph.node(row).properties.Has(col.key)) ++want;
    }
    size_t got = 0;
    col.present.ForEachSet(0, lean.num_rows(), [&](size_t) { ++got; });
    EXPECT_EQ(got, want) << "key " << col.key;
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

}  // namespace
}  // namespace pghive::pg
