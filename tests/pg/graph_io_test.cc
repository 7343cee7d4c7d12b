#include "pg/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pghive::pg {
namespace {

PropertyGraph SampleGraph() {
  PropertyGraph g;
  NodeId bob = g.AddNode({"Person"});
  g.SetNodeProperty(bob, "name", Value("Bob"));
  g.SetNodeProperty(bob, "age", Value(static_cast<int64_t>(44)));
  g.SetNodeProperty(bob, "score", Value(2.5));
  g.SetNodeProperty(bob, "active", Value(true));
  NodeId alice = g.AddNode({});  // Unlabeled.
  g.SetNodeProperty(alice, "name", Value("Alice"));
  NodeId org = g.AddNode({"Org", "Company"});
  EdgeId e = g.AddEdge(bob, org, {"WORKS_AT"});
  g.SetEdgeProperty(e, "from", Value(static_cast<int64_t>(2000)));
  g.AddEdge(alice, bob, {"KNOWS"});
  return g;
}

TEST(GraphIoTest, RoundTripPreservesStructure) {
  PropertyGraph g = SampleGraph();
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g2 = loaded.value();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  // Labels survive.
  EXPECT_EQ(g2.node(0).labels.size(), 1u);
  EXPECT_TRUE(g2.node(1).labels.empty());
  EXPECT_EQ(g2.node(2).labels.size(), 2u);
  // Properties survive with types re-probed.
  PropKeyId name = g2.vocab().FindKey("name");
  ASSERT_NE(name, UINT32_MAX);
  EXPECT_EQ(g2.node(0).properties.Get(name)->AsString(), "Bob");
  PropKeyId age = g2.vocab().FindKey("age");
  EXPECT_TRUE(g2.node(0).properties.Get(age)->is_int());
  PropKeyId active = g2.vocab().FindKey("active");
  EXPECT_TRUE(g2.node(0).properties.Get(active)->is_bool());
  // Edge endpoints survive.
  EXPECT_EQ(g2.edge(0).src, 0u);
  EXPECT_EQ(g2.edge(0).dst, 2u);
}

TEST(GraphIoTest, EscapesSpecialCharacters) {
  PropertyGraph g;
  NodeId n = g.AddNode({"La|bel"});
  g.SetNodeProperty(n, "k=ey", Value("va;lue=with\nnewline"));
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PropertyGraph& g2 = loaded.value();
  PropKeyId key = g2.vocab().FindKey("k=ey");
  ASSERT_NE(key, UINT32_MAX);
  EXPECT_EQ(g2.node(0).properties.Get(key)->AsString(),
            "va;lue=with\nnewline");
}

TEST(GraphIoTest, RejectsBadEdgeEndpoints) {
  auto result = LoadGraphText("E 0 5 6 REL\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
}

TEST(GraphIoTest, RejectsUnknownRecord) {
  auto result = LoadGraphText("X what\n");
  ASSERT_FALSE(result.ok());
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  auto result = LoadGraphText("# comment\n\nN 0 A \n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 1u);
}

TEST(GraphIoTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "pghive_graph_test.pg")
          .string();
  PropertyGraph g = SampleGraph();
  ASSERT_TRUE(SaveGraphFile(g, path).ok());
  auto loaded = LoadGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  auto result = LoadGraphFile("/nonexistent/graph.pg");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
}

const Value* NodeValue(const PropertyGraph& g, NodeId id,
                       const std::string& key) {
  const PropKeyId k = g.vocab().FindKey(key);
  return k == UINT32_MAX ? nullptr : g.node(id).properties.Get(k);
}

TEST(GraphIoTest, OutOfRangeIntegerLiteralStaysString) {
  auto loaded =
      LoadGraphText("N 0 A v=99999999999999999999;w=-9223372036854775808\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Value* v = NodeValue(*loaded, 0, "v");
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_string());
  EXPECT_EQ(v->AsString(), "99999999999999999999");
  const Value* w = NodeValue(*loaded, 0, "w");
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(w->is_int());
  EXPECT_EQ(w->AsInt(), INT64_MIN);
}

TEST(GraphIoTest, DenormalFloatLiteralParses) {
  auto loaded = LoadGraphText("N 0 A v=4e-320;w=1e999\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Value* v = NodeValue(*loaded, 0, "v");
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_float());
  EXPECT_GT(v->AsFloat(), 0.0);
  EXPECT_LT(v->AsFloat(), 1e-300);
  // Beyond a double's range: kept as the string it is.
  const Value* w = NodeValue(*loaded, 0, "w");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->is_string());
}

TEST(GraphIoTest, ProbesLiteralsInDocumentedOrder) {
  auto loaded = LoadGraphText(
      "N 0 A a=null;b=+7;c=-2.5e3;d=true;e=TRUE;f=2020-01-02;g=x1\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(NodeValue(*loaded, 0, "a")->is_null());
  EXPECT_EQ(NodeValue(*loaded, 0, "b")->AsInt(), 7);
  EXPECT_EQ(NodeValue(*loaded, 0, "c")->AsFloat(), -2500.0);
  EXPECT_TRUE(NodeValue(*loaded, 0, "d")->AsBool());
  EXPECT_EQ(NodeValue(*loaded, 0, "e")->AsString(), "TRUE");
  EXPECT_EQ(NodeValue(*loaded, 0, "f")->AsString(), "2020-01-02");
  EXPECT_EQ(NodeValue(*loaded, 0, "g")->AsString(), "x1");
}

TEST(GraphIoTest, RoundTripKeepsWhitespaceInValues) {
  PropertyGraph g;
  NodeId n = g.AddNode({"Person"});
  g.SetNodeProperty(n, "name", Value("John Smith"));
  g.SetNodeProperty(n, "zz", Value("x"));
  g.SetNodeProperty(n, "tabbed", Value("a\tb\r\v\f c"));
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(NodeValue(*loaded, 0, "name")->AsString(), "John Smith");
  ASSERT_NE(NodeValue(*loaded, 0, "zz"), nullptr);
  EXPECT_EQ(NodeValue(*loaded, 0, "zz")->AsString(), "x");
  EXPECT_EQ(NodeValue(*loaded, 0, "tabbed")->AsString(), "a\tb\r\v\f c");
}

TEST(GraphIoTest, RoundTripKeepsLoneDashAndPipeLabels) {
  PropertyGraph g;
  g.AddNode({"-"});
  g.AddNode({"-", "A|B"});
  auto loaded = LoadGraphText(SaveGraphText(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->node(0).labels.size(), 1u);
  EXPECT_EQ(loaded->vocab().LabelName(loaded->node(0).labels[0]), "-");
  ASSERT_EQ(loaded->node(1).labels.size(), 2u);
  EXPECT_NE(loaded->vocab().FindLabel("A|B"), UINT32_MAX);
}

TEST(GraphIoTest, InternsLabelsAndKeysInFirstSeenLineOrder) {
  auto loaded = LoadGraphText("N 0 B|A k2=1;k1=2\nN 1 C|A k0=3;k1=4\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Vocabulary& vocab = loaded->vocab();
  ASSERT_EQ(vocab.num_labels(), 3u);
  EXPECT_EQ(vocab.LabelName(0), "B");
  EXPECT_EQ(vocab.LabelName(1), "A");
  EXPECT_EQ(vocab.LabelName(2), "C");
  ASSERT_EQ(vocab.num_keys(), 3u);
  EXPECT_EQ(vocab.KeyName(0), "k2");
  EXPECT_EQ(vocab.KeyName(1), "k1");
  EXPECT_EQ(vocab.KeyName(2), "k0");
  // Labels are stored sorted by id.
  EXPECT_EQ(loaded->node(0).labels, (std::vector<LabelId>{0, 1}));
}

TEST(GraphIoTest, TrailingTokenIsAParseErrorNamingTheLine) {
  auto result = LoadGraphText("N 0 A a=1\nN 1 A name=John Smith\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("trailing token 'Smith'"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status().ToString();
}

TEST(GraphIoTest, MalformedLinesNameTheirLine) {
  for (const char* text :
       {"N 0 A\nN x A\n", "N 0 A\nN 1\n", "N 0 A\nE 0 0\n",
        "N 0 A\nE 0 0 -1 R\n", "N 0 A\nN 2 A\n", "N 0 A\nQ 1 A\n",
        "N 0 A\nNN 1 A\n", "N 0 A\nN 99999999999999999999999 A\n"}) {
    auto result = LoadGraphText(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), util::StatusCode::kParseError) << text;
    EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
        << result.status().ToString();
  }
}

// A props pair needs exactly one unescaped '=': a bare key, a second '='
// and an empty pair are ParseErrors that name the line and quote the pair,
// on node and edge lines alike, instead of loading with the pair dropped.
TEST(GraphIoTest, BadPropsPairIsAParseErrorNamingTheLine) {
  const struct {
    const char* text;
    const char* pair;
  } cases[] = {
      {"N 0 A\nN 1 A k\n", "'k'"},
      {"N 0 A\nN 1 A a=b=c\n", "'a=b=c'"},
      {"N 0 A\nN 1 A x=1;;y=2\n", "''"},
      {"N 0 A\nN 1 A x=1;\n", "''"},
      {"N 0 A\nE 0 0 0 R k\n", "'k'"},
      {"N 0 A\nE 0 0 0 R a=b=c\n", "'a=b=c'"},
      {"N 0 A\nE 0 0 0 R ;x=1\n", "''"},
  };
  for (const auto& c : cases) {
    auto result = LoadGraphText(c.text);
    ASSERT_FALSE(result.ok()) << c.text;
    EXPECT_EQ(result.status().code(), util::StatusCode::kParseError) << c.text;
    const std::string& message = result.status().message();
    EXPECT_NE(message.find(", line 2"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("pair ") + c.pair), std::string::npos)
        << message;
  }
  // "-" alone spells "no properties", as it spells "no labels".
  auto dash = LoadGraphText("N 0 A -\nN 1 - -\n");
  ASSERT_TRUE(dash.ok()) << dash.status().ToString();
  EXPECT_TRUE(dash->node(0).properties.empty());
  EXPECT_TRUE(dash->node(1).properties.empty());
  // Escaped '=' and ';' are data, not separators: the pair stays valid.
  auto escaped = LoadGraphText("N 0 A a\\e=b\\ec\\sd\n");
  ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
  EXPECT_EQ(NodeValue(*escaped, 0, "a=")->AsString(), "b=c;d");
}

TEST(GraphIoTest, AcceptsCrlfLineEndingsAndIndentation) {
  auto result = LoadGraphText("N 0 A a=1\r\n  N 1 B\r\nE 0 0 1 R\r\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_nodes(), 2u);
  EXPECT_EQ(result->num_edges(), 1u);
  EXPECT_EQ(NodeValue(*result, 0, "a")->AsInt(), 1);
}

// The writer renders floats like Value::ToString ('%g').
TEST(GraphIoTest, FloatRenderingMatchesValueToString) {
  util::Rng rng(11);
  std::vector<double> values = {0.0,   -0.0,  1.0,     0.1,    1e-5,
                                1e-4,  1e15,  123456.5, 1234567.0,
                                -2.5,  5e-324, 1.7976931348623157e308,
                                HUGE_VAL, -HUGE_VAL, std::nan("")};
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng.NextU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
    values.push_back(rng.NextDouble() * 1000.0 + 0.5);
  }
  for (double d : values) {
    PropertyGraph g;
    NodeId n = g.AddNode({"A"});
    g.SetNodeProperty(n, "f", Value(d));
    EXPECT_EQ(SaveGraphText(g), "N 0 A f=" + Value(d).ToString() + "\n");
  }
}

// A seeded round trip over names and values drawn from the characters the
// format must escape. String values that re-probe as literals ("12",
// "null", ...) are left out: they reload typed, as README documents.
TEST(GraphIoTest, RandomNamesAndValuesRoundTrip) {
  static constexpr char kAlphabet[] = " \t\\;=|\n-ab1.e";
  util::Rng rng(2024);
  auto draw = [&](size_t min_len) {
    std::string s;
    const size_t len = min_len + rng.NextBounded(6);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    return s;
  };
  for (int round = 0; round < 200; ++round) {
    PropertyGraph g;
    const size_t nodes = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < nodes; ++i) {
      std::vector<std::string> labels;
      for (size_t l = rng.NextBounded(3); l > 0; --l) labels.push_back(draw(1));
      const NodeId n = g.AddNode(labels);
      for (size_t p = rng.NextBounded(4); p > 0; --p) {
        std::string value = draw(0);
        if (!ParseValueLiteral(value).is_string()) continue;
        g.SetNodeProperty(n, draw(0), Value(value));
      }
    }
    for (size_t i = rng.NextBounded(4); i > 0; --i) {
      const EdgeId e = g.AddEdge(rng.NextBounded(nodes), rng.NextBounded(nodes),
                                 {draw(1)});
      const std::string value = draw(0);
      if (ParseValueLiteral(value).is_string()) {
        g.SetEdgeProperty(e, draw(0), Value(value));
      }
    }
    const std::string text = SaveGraphText(g);
    auto loaded = LoadGraphText(text);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString() << "\n" << text;
    const PropertyGraph& h = *loaded;
    ASSERT_EQ(h.num_nodes(), g.num_nodes()) << text;
    ASSERT_EQ(h.num_edges(), g.num_edges()) << text;
    // Labels and keys compare by name: the reload interns in line order.
    auto names = [](const PropertyGraph& graph,
                    const std::vector<LabelId>& ids) {
      std::vector<std::string> out;
      for (LabelId l : ids) out.push_back(graph.vocab().LabelName(l));
      std::sort(out.begin(), out.end());
      return out;
    };
    auto props = [](const PropertyGraph& graph, const PropertyMap& map) {
      std::vector<std::pair<std::string, std::string>> out;
      for (const auto& [k, v] : map.entries()) {
        out.emplace_back(graph.vocab().KeyName(k), v.AsString());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      EXPECT_EQ(names(h, h.node(id).labels), names(g, g.node(id).labels))
          << text;
      EXPECT_EQ(props(h, h.node(id).properties),
                props(g, g.node(id).properties))
          << text;
    }
    for (EdgeId id = 0; id < g.num_edges(); ++id) {
      EXPECT_EQ(h.edge(id).src, g.edge(id).src);
      EXPECT_EQ(h.edge(id).dst, g.edge(id).dst);
      EXPECT_EQ(names(h, h.edge(id).labels), names(g, g.edge(id).labels))
          << text;
      EXPECT_EQ(props(h, h.edge(id).properties),
                props(g, g.edge(id).properties))
          << text;
    }
  }
}

}  // namespace
}  // namespace pghive::pg
