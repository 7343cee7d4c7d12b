#include "core/type_extraction.h"

#include <algorithm>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "core/vectorizer.h"
#include "util/status.h"
#include "util/union_find.h"

namespace pghive::core {

namespace {

template <typename TypeT>
constexpr bool kIsEdge = std::is_same_v<TypeT, EdgeType>;

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// The Jaccard universe for unlabeled-cluster merging. Nodes compare property
// keys only (§4.3); edges also mix in endpoint tokens so property-less edge
// types with different endpoints do not collapse.
template <typename Endpoints>
std::vector<uint32_t> JaccardSet(std::vector<uint32_t> keys,
                                 const Endpoints& endpoints) {
  if (endpoints.empty()) return keys;
  // Offset endpoint tokens into a disjoint id range.
  constexpr uint32_t kSrcBase = 0x40000000u;
  constexpr uint32_t kDstBase = 0x80000000u;
  for (const auto& [src, dst] : endpoints) {
    if (src != pg::kNoToken) keys.push_back(kSrcBase + src);
    if (dst != pg::kNoToken) keys.push_back(kDstBase + dst);
  }
  SortUnique(&keys);
  return keys;
}

template <typename TypeT>
std::vector<uint32_t> TypeJaccardSet(const TypeT& type) {
  if constexpr (kIsEdge<TypeT>) {
    return JaccardSet(type.Keys(), type.endpoints);
  } else {
    return type.Keys();
  }
}

// Merges candidate `from` into candidate `into` by set union (Lemma 1/2).
void MergeCandidate(const CandidateType& from, CandidateType* into) {
  into->labels = UnionSorted(into->labels, from.labels);
  into->keys = UnionSorted(into->keys, from.keys);
  into->instances.insert(into->instances.end(), from.instances.begin(),
                         from.instances.end());
  into->instance_count += from.instance_count;
  // Merge sorted key-count runs.
  std::vector<std::pair<pg::PropKeyId, size_t>> merged;
  merged.reserve(into->key_counts.size() + from.key_counts.size());
  size_t i = 0, j = 0;
  while (i < into->key_counts.size() || j < from.key_counts.size()) {
    if (j >= from.key_counts.size() ||
        (i < into->key_counts.size() &&
         into->key_counts[i].first < from.key_counts[j].first)) {
      merged.push_back(into->key_counts[i++]);
    } else if (i >= into->key_counts.size() ||
               from.key_counts[j].first < into->key_counts[i].first) {
      merged.push_back(from.key_counts[j++]);
    } else {
      merged.emplace_back(into->key_counts[i].first,
                          into->key_counts[i].second +
                              from.key_counts[j].second);
      ++i;
      ++j;
    }
  }
  into->key_counts = std::move(merged);
  into->pattern_hashes.insert(into->pattern_hashes.end(),
                              from.pattern_hashes.begin(),
                              from.pattern_hashes.end());
  into->endpoints.insert(into->endpoints.end(), from.endpoints.begin(),
                         from.endpoints.end());
}

// Applies a candidate's evidence to a type (union semantics).
template <typename TypeT>
void ApplyToType(const CandidateType& c, TypeT* type) {
  type->labels = UnionSorted(type->labels, c.labels);
  for (const auto& [key, count] : c.key_counts) {
    type->properties[key].count += count;
  }
  // Keys present in the pattern but never counted (shouldn't happen, but
  // keep the union property airtight).
  for (pg::PropKeyId key : c.keys) type->properties[key];
  type->instances.insert(type->instances.end(), c.instances.begin(),
                         c.instances.end());
  type->instance_count += c.instance_count;
  type->pattern_hashes.insert(c.pattern_hashes.begin(), c.pattern_hashes.end());
  if constexpr (kIsEdge<TypeT>) {
    type->endpoints.insert(c.endpoints.begin(), c.endpoints.end());
  }
}

// The index of the labeled type (or, with `labeled` false, the ABSTRACT
// type) whose Jaccard with `c_set` is highest and >= theta; -1 if none is.
template <typename TypeT>
int BestMatch(const std::vector<TypeT>& types,
              const std::vector<uint32_t>& c_set, bool labeled,
              double theta) {
  double best = -1.0;
  int best_type = -1;
  for (uint32_t t = 0; t < types.size(); ++t) {
    if (types[t].is_abstract() == labeled) continue;
    double j = JaccardSorted(c_set, TypeJaccardSet(types[t]));
    if (j >= theta && j > best) {
      best = j;
      best_type = static_cast<int>(t);
    }
  }
  return best_type;
}

// Algorithm 2 for node or edge types.
template <typename TypeT>
void ExtractTypes(std::vector<CandidateType> candidates,
                  const ExtractionOptions& options,
                  std::vector<TypeT>* types) {
  // Index existing types by exact label-set key.
  std::unordered_map<uint64_t, uint32_t> by_label_set;
  for (uint32_t t = 0; t < types->size(); ++t) {
    const TypeT& type = (*types)[t];
    if (!type.labels.empty()) by_label_set[LabelSetKey(type.labels)] = t;
  }

  // Phase 1: labeled candidates merge by identical label set (Alg. 2 l.2-7).
  std::vector<CandidateType> unlabeled;
  for (auto& c : candidates) {
    if (!c.labeled()) {
      unlabeled.push_back(std::move(c));
      continue;
    }
    uint64_t key = LabelSetKey(c.labels);
    auto it = by_label_set.find(key);
    if (it != by_label_set.end()) {
      ApplyToType(c, &(*types)[it->second]);
    } else {
      TypeT fresh;
      ApplyToType(c, &fresh);
      types->push_back(std::move(fresh));
      by_label_set[key] = static_cast<uint32_t>(types->size() - 1);
    }
  }

  // Merges each candidate into its best match among the labeled (or the
  // ABSTRACT) types and returns the candidates that matched none.
  auto merge_into_best = [&](std::vector<CandidateType> pending,
                             bool labeled) {
    std::vector<CandidateType> left;
    for (auto& c : pending) {
      int t = BestMatch(*types, JaccardSet(c.keys, c.endpoints), labeled,
                        options.jaccard_threshold);
      if (t >= 0) {
        ApplyToType(c, &(*types)[t]);
      } else {
        left.push_back(std::move(c));
      }
    }
    return left;
  };
  // Phase 2: unlabeled candidates merge into the best labeled type with
  // Jaccard >= theta (Alg. 2 l.8-11). Phase 3a: then into existing ABSTRACT
  // types (incremental mode keeps abstract types from previous batches
  // alive).
  std::vector<CandidateType> fresh_unlabeled = merge_into_best(
      merge_into_best(std::move(unlabeled), /*labeled=*/true),
      /*labeled=*/false);

  // Phase 3b: pairwise merging among the remaining unlabeled clusters
  // (Alg. 2 l.12-14) via union-find, then append as ABSTRACT types.
  if (!fresh_unlabeled.empty()) {
    std::vector<std::vector<uint32_t>> sets;
    sets.reserve(fresh_unlabeled.size());
    for (const auto& c : fresh_unlabeled) {
      sets.push_back(JaccardSet(c.keys, c.endpoints));
    }
    util::UnionFind uf(fresh_unlabeled.size());
    for (size_t i = 0; i < fresh_unlabeled.size(); ++i) {
      for (size_t j = i + 1; j < fresh_unlabeled.size(); ++j) {
        if (JaccardSorted(sets[i], sets[j]) >= options.jaccard_threshold) {
          uf.Union(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
        }
      }
    }
    std::vector<uint32_t> comp(fresh_unlabeled.size());
    for (uint32_t i = 0; i < fresh_unlabeled.size(); ++i) comp[i] = uf.Find(i);
    std::map<uint32_t, CandidateType> groups;
    for (uint32_t i = 0; i < fresh_unlabeled.size(); ++i) {
      auto it = groups.find(comp[i]);
      if (it == groups.end()) {
        groups.emplace(comp[i], std::move(fresh_unlabeled[i]));
      } else {
        MergeCandidate(fresh_unlabeled[i], &it->second);
      }
    }
    for (auto& [root, c] : groups) {
      TypeT fresh;
      ApplyToType(c, &fresh);
      types->push_back(std::move(fresh));
    }
  }
}

// The candidate builder for nodes and edges, folded per structural pattern:
// cluster c's representative is (union of labels, union of keys) over its
// member patterns, with per-key presence counts for the later constraint
// inference. Pattern p stands for the rows i with row_pattern[i] == p, all
// of which share the labels, keys and pattern hash of its representative
// row pattern_rows[p], so its evidence is read once and weighted by its row
// count. `pattern_evidence(p, element, keys, &candidate)` adds pattern p's
// kind-specific evidence and returns the hash of its pattern. Instance ids
// are appended in row order.
template <typename ElementFn, typename PatternFn>
std::vector<CandidateType> BuildCandidates(
    const std::vector<uint64_t>& ids, const std::vector<uint32_t>& row_pattern,
    const std::vector<uint32_t>& pattern_rows,
    const lsh::ClusterSet& clusters, ElementFn element,
    PatternFn pattern_evidence) {
  PGHIVE_CHECK(row_pattern.size() == ids.size());
  PGHIVE_CHECK(clusters.num_items() == pattern_rows.size());
  std::vector<size_t> rows_of(pattern_rows.size(), 0);
  for (const uint32_t p : row_pattern) ++rows_of[p];
  std::vector<CandidateType> candidates(clusters.num_clusters());
  std::vector<std::map<pg::PropKeyId, size_t>> counts(clusters.num_clusters());
  for (size_t p = 0; p < pattern_rows.size(); ++p) {
    const uint32_t c = clusters.cluster_of(p);
    const size_t i = pattern_rows[p];
    const auto& e = element(ids[i]);
    CandidateType& cand = candidates[c];
    cand.labels = UnionSorted(cand.labels, e.labels);
    auto keys = e.properties.Keys();
    cand.keys = UnionSorted(cand.keys, keys);
    for (pg::PropKeyId k : keys) counts[c][k] += rows_of[p];
    cand.instance_count += rows_of[p];
    cand.pattern_hashes.push_back(pattern_evidence(p, e, keys, &cand));
  }
  for (CandidateType& cand : candidates) {
    cand.instances.reserve(cand.instance_count);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    candidates[clusters.cluster_of(row_pattern[i])].instances.push_back(ids[i]);
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    candidates[c].key_counts.assign(counts[c].begin(), counts[c].end());
    SortUnique(&candidates[c].pattern_hashes);
    SortUnique(&candidates[c].endpoints);
  }
  return candidates;
}

std::vector<CandidateType> NodeCandidates(
    const pg::PropertyGraph& graph, const std::vector<uint64_t>& ids,
    const std::vector<uint32_t>& row_pattern,
    const std::vector<uint32_t>& pattern_rows,
    const lsh::ClusterSet& clusters) {
  return BuildCandidates(
      ids, row_pattern, pattern_rows, clusters,
      [&](uint64_t id) -> const pg::Node& { return graph.node(id); },
      [](size_t, const pg::Node& n, const std::vector<pg::PropKeyId>& keys,
         CandidateType*) { return NodePattern{n.labels, keys}.Hash(); });
}

// `endpoints(p)` is pattern p's (src, dst) label-set token pair.
template <typename EndpointsFn>
std::vector<CandidateType> EdgeCandidates(
    const pg::PropertyGraph& graph, const std::vector<uint64_t>& ids,
    const std::vector<uint32_t>& row_pattern,
    const std::vector<uint32_t>& pattern_rows,
    const lsh::ClusterSet& clusters, EndpointsFn endpoints) {
  return BuildCandidates(
      ids, row_pattern, pattern_rows, clusters,
      [&](uint64_t id) -> const pg::Edge& { return graph.edge(id); },
      [&](size_t p, const pg::Edge& e, const std::vector<pg::PropKeyId>& keys,
          CandidateType* cand) {
        cand->endpoints.push_back(endpoints(p));
        return EdgePattern{e.labels, keys, graph.node(e.src).labels,
                           graph.node(e.dst).labels}
            .Hash();
      });
}

template <typename TypeT>
CandidateType TypeToCandidate(const TypeT& type) {
  CandidateType c;
  c.labels = type.labels;
  c.keys = type.Keys();
  c.instances = type.instances;
  c.instance_count = type.instance_count;
  for (const auto& [key, info] : type.properties) {
    c.key_counts.emplace_back(key, info.count);
  }
  c.pattern_hashes.assign(type.pattern_hashes.begin(),
                          type.pattern_hashes.end());
  if constexpr (kIsEdge<TypeT>) {
    c.endpoints.assign(type.endpoints.begin(), type.endpoints.end());
  }
  return c;
}

// Replays `from` as candidates into `into` (MergeSchemas, one kind).
template <typename TypeT>
void MergeTypes(const std::vector<TypeT>& from,
                const ExtractionOptions& options, std::vector<TypeT>* into) {
  std::vector<CandidateType> candidates;
  candidates.reserve(from.size());
  for (const TypeT& t : from) candidates.push_back(TypeToCandidate(t));
  ExtractTypes(std::move(candidates), options, into);
}

}  // namespace

std::vector<CandidateType> BuildNodeCandidates(
    const pg::PropertyGraph& graph, const pg::ColumnStore& cols,
    const lsh::ClusterSet& pattern_clusters) {
  return NodeCandidates(graph, cols.ids(), cols.pattern_ids(),
                        cols.pattern_rows(), pattern_clusters);
}

std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const pg::ColumnStore& cols,
    const lsh::ClusterSet& pattern_clusters) {
  return EdgeCandidates(graph, cols.ids(), cols.pattern_ids(),
                        cols.pattern_rows(), pattern_clusters, [&](size_t p) {
                          const uint32_t row = cols.pattern_rows()[p];
                          return std::make_pair(cols.src_tokens()[row],
                                                cols.dst_tokens()[row]);
                        });
}

std::vector<CandidateType> BuildNodeCandidates(
    const pg::PropertyGraph& graph, const pg::GraphBatch& batch,
    const lsh::ClusterSet& clusters) {
  const std::vector<uint32_t> identity = IdentityPatternMap(batch.node_ids.size());
  return NodeCandidates(graph, batch.node_ids, identity, identity, clusters);
}

std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const pg::GraphBatch& batch,
    const lsh::ClusterSet& clusters,
    const std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>&
        endpoint_tokens) {
  PGHIVE_CHECK(endpoint_tokens.size() == batch.edge_ids.size());
  const std::vector<uint32_t> identity = IdentityPatternMap(batch.edge_ids.size());
  return EdgeCandidates(graph, batch.edge_ids, identity, identity, clusters,
                        [&](size_t i) { return endpoint_tokens[i]; });
}

void ExtractNodeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema) {
  ExtractTypes(std::move(candidates), options, &schema->node_types());
}

void ExtractEdgeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema) {
  ExtractTypes(std::move(candidates), options, &schema->edge_types());
}

CandidateType NodeTypeToCandidate(const NodeType& type) {
  return TypeToCandidate(type);
}

CandidateType EdgeTypeToCandidate(const EdgeType& type) {
  return TypeToCandidate(type);
}

SchemaGraph MergeSchemas(const SchemaGraph& a, const SchemaGraph& b,
                         const ExtractionOptions& options) {
  SchemaGraph merged = a;
  MergeTypes(b.node_types(), options, &merged.node_types());
  MergeTypes(b.edge_types(), options, &merged.edge_types());
  return merged;
}

}  // namespace pghive::core
