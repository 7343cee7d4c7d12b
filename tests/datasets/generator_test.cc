#include "datasets/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "pg/graph_io.h"

#include "datasets/zoo.h"

namespace pghive::datasets {
namespace {

DatasetSpec TinySpec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.default_nodes = 100;
  spec.node_types = {
      {"A", {"A"}, {Prop("x", pg::DataType::kInteger)}, 3.0},
      {"B", {"B"}, {Prop("y", pg::DataType::kString, 0.5)}, 1.0},
  };
  EdgeTypeSpec e;
  e.name = "R";
  e.labels = {"R"};
  e.src_type = 0;
  e.dst_type = 1;
  e.cardinality = EdgeCard::kManyToOne;
  e.fan = 1.0;
  spec.edge_types = {e};
  return spec;
}

TEST(GeneratorTest, RespectsTargetSizeAndWeights) {
  Dataset d = Generate(TinySpec(), 1.0, 1);
  EXPECT_NEAR(static_cast<double>(d.graph.num_nodes()), 100.0, 3.0);
  // Type A has 3x weight.
  size_t a_count = 0;
  for (uint32_t t : d.truth.node_type) a_count += t == 0;
  EXPECT_NEAR(static_cast<double>(a_count) / d.graph.num_nodes(), 0.75, 0.05);
}

TEST(GeneratorTest, GroundTruthCoversEverything) {
  Dataset d = Generate(TinySpec(), 1.0, 2);
  EXPECT_EQ(d.truth.node_type.size(), d.graph.num_nodes());
  EXPECT_EQ(d.truth.edge_type.size(), d.graph.num_edges());
  for (uint32_t t : d.truth.node_type) EXPECT_LT(t, 2u);
  for (uint32_t t : d.truth.edge_type) EXPECT_EQ(t, 0u);
}

TEST(GeneratorTest, LabelsMatchGroundTruth) {
  Dataset d = Generate(TinySpec(), 1.0, 3);
  pg::LabelId a = d.graph.vocab().FindLabel("A");
  for (pg::NodeId i = 0; i < d.graph.num_nodes(); ++i) {
    if (d.truth.node_type[i] == 0) {
      EXPECT_TRUE(d.graph.node(i).HasLabel(a));
    } else {
      EXPECT_FALSE(d.graph.node(i).HasLabel(a));
    }
  }
}

TEST(GeneratorTest, MandatoryPropertiesAlwaysPresent) {
  Dataset d = Generate(TinySpec(), 1.0, 4);
  pg::PropKeyId x = d.graph.vocab().FindKey("x");
  for (pg::NodeId i = 0; i < d.graph.num_nodes(); ++i) {
    if (d.truth.node_type[i] == 0) {
      EXPECT_TRUE(d.graph.node(i).properties.Has(x));
    }
  }
}

TEST(GeneratorTest, OptionalPresenceRateApproximatesSpec) {
  Dataset d = Generate(TinySpec(), 5.0, 5);  // 500 nodes for statistics.
  pg::PropKeyId y = d.graph.vocab().FindKey("y");
  size_t b_total = 0, y_present = 0;
  for (pg::NodeId i = 0; i < d.graph.num_nodes(); ++i) {
    if (d.truth.node_type[i] != 1) continue;
    ++b_total;
    y_present += d.graph.node(i).properties.Has(y);
  }
  ASSERT_GT(b_total, 50u);
  EXPECT_NEAR(static_cast<double>(y_present) / b_total, 0.5, 0.12);
}

TEST(GeneratorTest, DeterministicInSeed) {
  Dataset a = Generate(TinySpec(), 1.0, 7);
  Dataset b = Generate(TinySpec(), 1.0, 7);
  EXPECT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.truth.node_type, b.truth.node_type);
  Dataset c = Generate(TinySpec(), 1.0, 8);
  EXPECT_NE(pg::SaveGraphText(a.graph), pg::SaveGraphText(c.graph));
}

TEST(GeneratorTest, ManyToOneCardinalityHolds) {
  Dataset d = Generate(TinySpec(), 2.0, 9);
  // kManyToOne: every source emits at most one edge of this type.
  std::map<pg::NodeId, int> out_count;
  for (const pg::Edge& e : d.graph.edges()) ++out_count[e.src];
  for (const auto& [src, count] : out_count) EXPECT_EQ(count, 1);
}

TEST(GeneratorTest, ScaleMultipliesSize) {
  Dataset small = Generate(TinySpec(), 0.5, 10);
  Dataset big = Generate(TinySpec(), 2.0, 10);
  EXPECT_NEAR(static_cast<double>(big.graph.num_nodes()) /
                  static_cast<double>(small.graph.num_nodes()),
              4.0, 0.5);
}

TEST(GeneratorTest, EveryTypeGetsAtLeastOneInstance) {
  DatasetSpec spec = TinySpec();
  spec.node_types[1].weight = 1e-6;  // Nearly zero weight.
  Dataset d = Generate(spec, 1.0, 11);
  bool has_b = false;
  for (uint32_t t : d.truth.node_type) has_b |= t == 1;
  EXPECT_TRUE(has_b);
}

TEST(GenerateValueTest, TypesMatchRequest) {
  util::Rng rng(12);
  EXPECT_EQ(GenerateValue(pg::DataType::kInteger, &rng).InferType(),
            pg::DataType::kInteger);
  EXPECT_EQ(GenerateValue(pg::DataType::kFloat, &rng).InferType(),
            pg::DataType::kFloat);
  EXPECT_EQ(GenerateValue(pg::DataType::kBoolean, &rng).InferType(),
            pg::DataType::kBoolean);
  EXPECT_EQ(GenerateValue(pg::DataType::kDate, &rng).InferType(),
            pg::DataType::kDate);
  EXPECT_EQ(GenerateValue(pg::DataType::kDateTime, &rng).InferType(),
            pg::DataType::kDateTime);
  EXPECT_EQ(GenerateValue(pg::DataType::kString, &rng).InferType(),
            pg::DataType::kString);
}

TEST(GeneratorTest, MixedRateProducesOffTypeValues) {
  DatasetSpec spec = TinySpec();
  spec.node_types[0].properties = {
      MixedProp("m", pg::DataType::kInteger, 1.0, 0.3, pg::DataType::kString)};
  Dataset d = Generate(spec, 3.0, 13);
  pg::PropKeyId m = d.graph.vocab().FindKey("m");
  size_t ints = 0, strings = 0, total = 0;
  for (pg::NodeId i = 0; i < d.graph.num_nodes(); ++i) {
    const pg::Value* v = d.graph.node(i).properties.Get(m);
    if (v == nullptr) continue;
    ++total;
    pg::DataType t = v->InferType();
    ints += t == pg::DataType::kInteger;
    strings += t == pg::DataType::kString;
  }
  ASSERT_GT(total, 100u);
  EXPECT_NEAR(static_cast<double>(strings) / total, 0.3, 0.1);
  EXPECT_EQ(ints + strings, total);
}

// Saved zoo graph text reloads into the same graph: the same labels and the
// same typed property values, so saving the reload gives the same bytes.
TEST(GeneratorTest, ZooGraphTextReloadsIdentically) {
  // Labels and keys by name: the reload interns them in line order.
  auto labels = [](const pg::PropertyGraph& g,
                   const std::vector<pg::LabelId>& ids) {
    std::vector<std::string> out;
    for (pg::LabelId l : ids) out.push_back(g.vocab().LabelName(l));
    std::sort(out.begin(), out.end());
    return out;
  };
  // Values as their rendering re-probes: graph text keeps a float to '%g',
  // so 216.0005 reloads as the integer 216.
  auto props = [](const pg::PropertyGraph& g, const pg::PropertyMap& map) {
    std::map<std::string, pg::Value> out;
    for (const auto& [k, v] : map.entries()) {
      out.emplace(g.vocab().KeyName(k), pg::ParseValueLiteral(v.ToString()));
    }
    return out;
  };
  for (const DatasetSpec& spec : Zoo()) {
    Dataset dataset = Generate(spec, 0.05, 3);
    const pg::PropertyGraph& want = dataset.graph;
    const std::string text = pg::SaveGraphText(want);
    auto loaded = pg::LoadGraphText(text);
    ASSERT_TRUE(loaded.ok()) << spec.name << ": " << loaded.status().ToString();
    const pg::PropertyGraph& got = *loaded;
    EXPECT_EQ(pg::SaveGraphText(got), text) << spec.name;
    ASSERT_EQ(got.num_nodes(), want.num_nodes()) << spec.name;
    ASSERT_EQ(got.num_edges(), want.num_edges()) << spec.name;
    for (pg::NodeId id = 0; id < got.num_nodes(); ++id) {
      EXPECT_EQ(labels(got, got.node(id).labels),
                labels(want, want.node(id).labels));
      EXPECT_TRUE(props(got, got.node(id).properties) ==
                  props(want, want.node(id).properties))
          << spec.name << " node " << id;
    }
    for (pg::EdgeId id = 0; id < got.num_edges(); ++id) {
      EXPECT_EQ(labels(got, got.edge(id).labels),
                labels(want, want.edge(id).labels));
      EXPECT_TRUE(props(got, got.edge(id).properties) ==
                  props(want, want.edge(id).properties))
          << spec.name << " edge " << id;
    }
  }
}

}  // namespace
}  // namespace pghive::datasets
