#include "core/cardinality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/rng.h"

namespace pghive::core {
namespace {

struct Fixture {
  pg::PropertyGraph graph;
  std::vector<pg::NodeId> people;
  std::vector<pg::NodeId> orgs;

  Fixture() {
    for (int i = 0; i < 6; ++i) people.push_back(graph.AddNode({"Person"}));
    for (int i = 0; i < 2; ++i) orgs.push_back(graph.AddNode({"Org"}));
  }
};

TEST(CardinalityTest, ManyToOneDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  // Every person works at exactly one org; orgs have many employees.
  for (pg::NodeId p : f.people) {
    edges.push_back(f.graph.AddEdge(p, f.orgs[p % 2], {"WORKS_AT"}));
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 1u);
  EXPECT_GT(c.max_in, 1u);
  EXPECT_EQ(c.kind, CardinalityKind::kManyToOne);
}

TEST(CardinalityTest, OneToManyDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  // One org employs (reversed direction) many people.
  for (pg::NodeId p : f.people) {
    edges.push_back(f.graph.AddEdge(f.orgs[0], p, {"EMPLOYS"}));
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToMany);
}

TEST(CardinalityTest, OneToOneDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[1], {"SPOUSE"}));
  edges.push_back(f.graph.AddEdge(f.people[2], f.people[3], {"SPOUSE"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToOne);
}

TEST(CardinalityTest, ManyToManyDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  for (int i = 0; i < 3; ++i) {
    for (int j = 3; j < 6; ++j) {
      edges.push_back(f.graph.AddEdge(f.people[i], f.people[j], {"KNOWS"}));
    }
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kManyToMany);
  EXPECT_EQ(c.max_out, 3u);
  EXPECT_EQ(c.max_in, 3u);
}

TEST(CardinalityTest, DistinctTargetsOnly) {
  // Parallel edges to the same target count once for the degree bound.
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.orgs[0], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[0], f.orgs[0], {"R"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 1u);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToOne);
}

TEST(CardinalityTest, EmptyEdgeListIsUnknown) {
  Fixture f;
  Cardinality c = CardinalityForEdges(f.graph, {});
  EXPECT_EQ(c.kind, CardinalityKind::kUnknown);
}

TEST(CardinalityTest, ComputeForWholeSchema) {
  Fixture f;
  SchemaGraph schema;
  EdgeType works;
  for (pg::NodeId p : f.people) {
    works.instances.push_back(f.graph.AddEdge(p, f.orgs[0], {"WORKS_AT"}));
  }
  schema.edge_types().push_back(works);
  ComputeCardinalities(f.graph, &schema);
  EXPECT_EQ(schema.edge_types()[0].cardinality.kind,
            CardinalityKind::kManyToOne);
}

// Soundness (§4.7): the recorded bounds are upper bounds — no source in the
// data exceeds max_out, no target exceeds max_in.
TEST(CardinalityTest, BoundsAreSoundUpperBounds) {
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[1], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[2], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[3], f.people[1], {"R"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 2u);  // person0 -> {1,2}.
  EXPECT_EQ(c.max_in, 2u);   // person1 <- {0,3}.
}

// The flat pass agrees with a direct set-per-endpoint count on random edge
// subsets, parallel edges and self-loops included, and per type when one
// ComputeCardinalities call reuses its buffers across types.
TEST(CardinalityTest, MatchesSetCountingReference) {
  util::Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    pg::PropertyGraph graph;
    const size_t nodes = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < nodes; ++i) graph.AddNode({"N"});
    SchemaGraph schema;
    std::vector<Cardinality> expected;
    for (size_t t = rng.NextBounded(4); t > 0; --t) {
      EdgeType type;
      std::map<pg::NodeId, std::set<pg::NodeId>> out, in;
      for (size_t e = rng.NextBounded(60); e > 0; --e) {
        const pg::NodeId src = rng.NextBounded(nodes);
        const pg::NodeId dst = rng.NextBounded(nodes);
        type.instances.push_back(graph.AddEdge(src, dst, {"R"}));
        out[src].insert(dst);
        in[dst].insert(src);
      }
      Cardinality want;
      for (const auto& [node, set] : out) {
        want.max_out = std::max(want.max_out, set.size());
      }
      for (const auto& [node, set] : in) {
        want.max_in = std::max(want.max_in, set.size());
      }
      want.kind = ClassifyCardinality(want.max_out, want.max_in);
      expected.push_back(want);
      schema.edge_types().push_back(type);
    }
    ComputeCardinalities(graph, &schema);
    for (size_t t = 0; t < expected.size(); ++t) {
      const Cardinality& got = schema.edge_types()[t].cardinality;
      EXPECT_EQ(got.max_out, expected[t].max_out) << round << "/" << t;
      EXPECT_EQ(got.max_in, expected[t].max_in) << round << "/" << t;
      EXPECT_EQ(got.kind, expected[t].kind) << round << "/" << t;
    }
  }
}

}  // namespace
}  // namespace pghive::core
