#include "core/datatype_inference.h"

#include <algorithm>
#include <array>

#include "util/rng.h"

namespace pghive::core {

namespace {

const pg::Value* GetValue(const pg::PropertyGraph& graph, uint64_t instance,
                          bool edges, pg::PropKeyId key) {
  if (edges) return graph.edge(instance).properties.Get(key);
  return graph.node(instance).properties.Get(key);
}

void InferForType(const pg::PropertyGraph& graph, bool edges,
                  const DataTypeOptions& options, util::Rng* rng,
                  ElementType* type) {
  for (auto& [key, info] : type->properties) {
    pg::DataType joined = pg::DataType::kNull;
    size_t seen = 0;
    if (options.sample && type->instances.size() > options.min_sample) {
      size_t want = std::max(
          options.min_sample,
          static_cast<size_t>(options.sample_fraction *
                              static_cast<double>(type->instances.size())));
      want = std::min(want, type->instances.size());
      auto idx = rng->SampleWithoutReplacement(type->instances.size(), want);
      for (size_t i : idx) {
        const pg::Value* v = GetValue(graph, type->instances[i], edges, key);
        if (v == nullptr || v->is_null()) continue;
        joined = pg::JoinDataTypes(joined, v->InferType());
        ++seen;
      }
    } else {
      for (uint64_t inst : type->instances) {
        const pg::Value* v = GetValue(graph, inst, edges, key);
        if (v == nullptr || v->is_null()) continue;
        joined = pg::JoinDataTypes(joined, v->InferType());
        ++seen;
      }
    }
    // The paper falls back to a string default when nothing is known.
    info.data_type = (seen == 0 || joined == pg::DataType::kNull)
                         ? pg::DataType::kString
                         : joined;
  }
}

}  // namespace

void InferDataTypes(const pg::PropertyGraph& graph, SchemaGraph* schema,
                    const DataTypeOptions& options, util::ThreadPool* pool) {
  // One pre-split RNG per type (seeded by kind + index, not by a shared
  // stream) so the sampled values do not depend on scan order or pool size.
  auto infer_kind = [&](auto& types, uint64_t kind, bool edges) {
    util::ParallelFor(pool, 0, types.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        util::Rng rng(util::HashCombine(util::Mix64(options.seed ^ kind),
                                        static_cast<uint64_t>(i)));
        InferForType(graph, edges, options, &rng, &types[i]);
      }
    });
  };
  infer_kind(schema->node_types(), 0x4E, /*edges=*/false);
  infer_kind(schema->edge_types(), 0xED, /*edges=*/true);
}

pg::DataType FullScanType(const pg::PropertyGraph& graph,
                          const std::vector<uint64_t>& instances, bool edges,
                          pg::PropKeyId key) {
  pg::DataType joined = pg::DataType::kNull;
  size_t seen = 0;
  for (uint64_t inst : instances) {
    const pg::Value* v = GetValue(graph, inst, edges, key);
    if (v == nullptr || v->is_null()) continue;
    joined = pg::JoinDataTypes(joined, v->InferType());
    ++seen;
  }
  return (seen == 0 || joined == pg::DataType::kNull) ? pg::DataType::kString
                                                      : joined;
}

std::array<double, 4> SamplingErrorReport::BinFractions() const {
  std::array<double, 4> bins = {0, 0, 0, 0};
  if (errors.empty()) {
    bins[0] = 1.0;
    return bins;
  }
  for (double e : errors) {
    if (e < 0.05) {
      ++bins[0];
    } else if (e < 0.10) {
      ++bins[1];
    } else if (e < 0.20) {
      ++bins[2];
    } else {
      ++bins[3];
    }
  }
  for (auto& b : bins) b /= static_cast<double>(errors.size());
  return bins;
}

namespace {

void SamplingErrorsForType(const pg::PropertyGraph& graph, bool edges,
                           const DataTypeOptions& options, util::Rng* rng,
                           const ElementType& type,
                           std::vector<double>* out) {
  for (const auto& [key, info] : type.properties) {
    pg::DataType full = FullScanType(graph, type.instances, edges, key);
    // Sample values.
    size_t want = std::max(
        options.min_sample,
        static_cast<size_t>(options.sample_fraction *
                            static_cast<double>(type.instances.size())));
    want = std::min(want, type.instances.size());
    if (want == 0) continue;
    auto idx = rng->SampleWithoutReplacement(type.instances.size(), want);
    size_t disagreements = 0;
    size_t sampled = 0;
    for (size_t i : idx) {
      const pg::Value* v = GetValue(graph, type.instances[i], edges, key);
      if (v == nullptr || v->is_null()) continue;
      ++sampled;
      if (v->InferType() != full) ++disagreements;
    }
    if (sampled == 0) continue;
    out->push_back(static_cast<double>(disagreements) /
                   static_cast<double>(sampled));
  }
}

}  // namespace

SamplingErrorReport ComputeSamplingErrors(const pg::PropertyGraph& graph,
                                          const SchemaGraph& schema,
                                          const DataTypeOptions& options) {
  SamplingErrorReport report;
  util::Rng rng(options.seed ^ 0xABCDEF);
  for (const auto& t : schema.node_types()) {
    SamplingErrorsForType(graph, /*edges=*/false, options, &rng, t,
                          &report.errors);
  }
  for (const auto& t : schema.edge_types()) {
    SamplingErrorsForType(graph, /*edges=*/true, options, &rng, t,
                          &report.errors);
  }
  return report;
}

}  // namespace pghive::core
