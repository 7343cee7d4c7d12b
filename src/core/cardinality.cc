#include "core/cardinality.h"

#include <algorithm>
#include <utility>

namespace pghive::core {

namespace {

// Buffers reused across the edge types of one ComputeCardinalities call.
struct Scratch {
  std::vector<std::pair<pg::NodeId, pg::NodeId>> pairs;
  std::vector<size_t> in_degree;  // By node id; all zero between types.
};

Cardinality ComputeCardinality(const pg::PropertyGraph& graph,
                               const std::vector<uint64_t>& edge_ids,
                               Scratch* scratch) {
  // The distinct (src, dst) pairs, sorted by source: parallel edges count
  // once in either direction.
  auto& pairs = scratch->pairs;
  pairs.clear();
  pairs.reserve(edge_ids.size());
  for (uint64_t id : edge_ids) {
    const pg::Edge& e = graph.edge(id);
    pairs.emplace_back(e.src, e.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  Cardinality c;
  // Distinct targets of a source: the length of its run.
  for (size_t i = 0, run = 0; i < pairs.size(); ++i) {
    run = (i > 0 && pairs[i].first == pairs[i - 1].first) ? run + 1 : 1;
    c.max_out = std::max(c.max_out, run);
  }
  // Distinct sources of a target: a count per dense node id, reset after.
  auto& in_degree = scratch->in_degree;
  if (in_degree.size() < graph.num_nodes()) {
    in_degree.resize(graph.num_nodes(), 0);
  }
  for (const auto& [src, dst] : pairs) {
    c.max_in = std::max(c.max_in, ++in_degree[dst]);
  }
  for (const auto& [src, dst] : pairs) in_degree[dst] = 0;
  c.kind = ClassifyCardinality(c.max_out, c.max_in);
  return c;
}

}  // namespace

Cardinality CardinalityForEdges(const pg::PropertyGraph& graph,
                                const std::vector<uint64_t>& edge_ids) {
  Scratch scratch;
  return ComputeCardinality(graph, edge_ids, &scratch);
}

void ComputeCardinalities(const pg::PropertyGraph& graph,
                          SchemaGraph* schema) {
  Scratch scratch;
  for (auto& t : schema->edge_types()) {
    t.cardinality = ComputeCardinality(graph, t.instances, &scratch);
  }
}

}  // namespace pghive::core
