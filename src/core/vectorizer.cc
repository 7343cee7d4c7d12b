#include "core/vectorizer.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace pghive::core {

namespace {

constexpr uint64_t kLabelTag = 1ULL << 40;
constexpr uint64_t kSrcTag = 2ULL << 40;
constexpr uint64_t kDstTag = 3ULL << 40;
constexpr uint64_t kKeyTag = 4ULL << 40;

/// Rows per ParallelFor chunk. Embedding one row is a few hundred flops, so
/// this keeps chunk dispatch overhead well under 1% of the work.
constexpr size_t kRowGrain = 256;

/// The embedding of each distinct token a call needs, computed once. Add
/// runs serially before the parallel phase; Copy is then a read-only lookup.
/// kNoToken keeps the zero block the caller's zero-filled row already holds.
class EmbeddingTable {
 public:
  EmbeddingTable(const embed::LabelEmbedder& embedder, size_t num_tokens)
      : embedder_(embedder), slot_(num_tokens, kAbsent) {}

  void Add(pg::LabelSetToken token) {
    if (token == pg::kNoToken || slot_[token] != kAbsent) return;
    const size_t dim = embedder_.dim();
    slot_[token] = static_cast<uint32_t>(rows_.size() / dim);
    rows_.resize(rows_.size() + dim);
    embedder_.Embed(token, &rows_[rows_.size() - dim]);
  }

  void Copy(pg::LabelSetToken token, float* out) const {
    if (token == pg::kNoToken) return;
    const size_t dim = embedder_.dim();
    std::memcpy(out, &rows_[slot_[token] * dim], dim * sizeof(float));
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  const embed::LabelEmbedder& embedder_;
  std::vector<uint32_t> slot_;
  std::vector<float> rows_;
};

/// Writes 1.0f at out[key] for every key < max_key that `row` of `cols`
/// carries: the binary block of one feature row.
void MarkKeys(const pg::ColumnStore& cols, size_t row, size_t max_key,
              float* out) {
  for (uint32_t k = cols.key_offsets()[row]; k < cols.key_offsets()[row + 1];
       ++k) {
    const pg::PropKeyId key = cols.key_ids()[k];
    if (key < max_key) out[key] = 1.0f;
  }
}

/// The dense adapter of the feature producers: row i of the result is row
/// row_pattern[i] of `patterns`.
FeatureMatrix ExpandRows(const FeatureMatrix& patterns,
                         const std::vector<uint32_t>& row_pattern,
                         util::ThreadPool* pool) {
  FeatureMatrix m;
  m.num = row_pattern.size();
  m.dim = patterns.dim;
  m.data.resize(m.num * m.dim);
  util::ParallelFor(pool, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      std::memcpy(&m.data[i * m.dim], patterns.row(row_pattern[i]),
                  m.dim * sizeof(float));
    }
  });
  return m;
}

/// The dense adapter of the set producers: set i of the result is set
/// row_pattern[i] of `patterns`.
ElementSetCsr ExpandSets(const ElementSetCsr& patterns,
                         const std::vector<uint32_t>& row_pattern,
                         util::ThreadPool* pool) {
  const size_t num = row_pattern.size();
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t i = 0; i < num; ++i) {
    const uint32_t p = row_pattern[i];
    csr.offsets[i + 1] =
        csr.offsets[i] + (patterns.offsets[p + 1] - patterns.offsets[p]);
  }
  csr.elements.resize(csr.offsets[num]);
  util::ParallelFor(pool, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t p = row_pattern[i];
      std::copy(patterns.elements.begin() + patterns.offsets[p],
                patterns.elements.begin() + patterns.offsets[p + 1],
                csr.elements.begin() + csr.offsets[i]);
    }
  });
  return csr;
}

}  // namespace

std::vector<uint32_t> IdentityPatternMap(size_t num) {
  std::vector<uint32_t> map(num);
  std::iota(map.begin(), map.end(), 0u);
  return map;
}

uint64_t MinHashLabelElement(uint32_t token) { return kLabelTag | token; }
uint64_t MinHashSrcElement(uint32_t token) { return kSrcTag | token; }
uint64_t MinHashDstElement(uint32_t token) { return kDstTag | token; }
uint64_t MinHashKeyElement(uint32_t key) { return kKeyTag | key; }

Vectorizer::Vectorizer(pg::PropertyGraph* graph,
                       const embed::LabelEmbedder* embedder,
                       util::ThreadPool* pool, bool columnar)
    : graph_(graph), embedder_(embedder), pool_(pool), columnar_(columnar) {}

// The token-intern pre-passes. Interning assigns token ids in first-seen
// order, so these must stay sequential (and in row order) to keep ids
// independent of the thread count; afterwards every token of the batch is
// present, which is what makes the parallel phases' (and the later
// node/edge tracks') vocabulary accesses read-only.

const std::vector<pg::LabelSetToken>& Vectorizer::NodeTokens(
    const pg::GraphBatch& batch) {
  if (!node_tokens_valid_ || node_token_ids_ != batch.node_ids) {
    pg::Vocabulary& vocab = graph_->vocab();
    node_tokens_.assign(batch.node_ids.size(), pg::kNoToken);
    for (size_t i = 0; i < node_tokens_.size(); ++i) {
      node_tokens_[i] =
          vocab.TokenForLabelSet(graph_->node(batch.node_ids[i]).labels);
    }
    node_token_ids_ = batch.node_ids;
    node_tokens_valid_ = true;
  }
  return node_tokens_;
}

const std::vector<Vectorizer::EdgeTokens>& Vectorizer::EdgeTokensFor(
    const pg::GraphBatch& batch) {
  if (!edge_tokens_valid_ || edge_token_ids_ != batch.edge_ids) {
    pg::Vocabulary& vocab = graph_->vocab();
    edge_tokens_.assign(batch.edge_ids.size(), EdgeTokens{});
    for (size_t i = 0; i < edge_tokens_.size(); ++i) {
      const pg::Edge& e = graph_->edge(batch.edge_ids[i]);
      // Intern in (src, edge, dst) order — the corpus-builder sentence order,
      // and the order pg::ColumnStore::ForEdges uses, so token ids agree
      // between the row and columnar paths wherever this pass interns first.
      edge_tokens_[i].src = vocab.TokenForLabelSet(graph_->node(e.src).labels);
      edge_tokens_[i].edge = vocab.TokenForLabelSet(e.labels);
      edge_tokens_[i].dst = vocab.TokenForLabelSet(graph_->node(e.dst).labels);
    }
    edge_token_ids_ = batch.edge_ids;
    edge_tokens_valid_ = true;
  }
  return edge_tokens_;
}

const pg::ColumnStore& Vectorizer::NodeColumns(const pg::GraphBatch& batch) {
  if (!node_cols_valid_ || node_col_ids_ != batch.node_ids) {
    node_cols_ = pg::ColumnStore::ForNodes(*graph_, batch.node_ids);
    node_col_ids_ = batch.node_ids;
    node_cols_valid_ = true;
  }
  return node_cols_;
}

const pg::ColumnStore& Vectorizer::EdgeColumns(const pg::GraphBatch& batch) {
  if (!edge_cols_valid_ || edge_col_ids_ != batch.edge_ids) {
    edge_cols_ = pg::ColumnStore::ForEdges(*graph_, batch.edge_ids);
    edge_col_ids_ = batch.edge_ids;
    edge_cols_valid_ = true;
  }
  return edge_cols_;
}

FeatureMatrix Vectorizer::NodePatternFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  const std::vector<uint32_t>& reps = cols.pattern_rows();
  const size_t d = embedder_->dim();
  const size_t k = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = reps.size();
  m.dim = d + k;
  m.data.assign(m.num * m.dim, 0.0f);
  EmbeddingTable embeddings(*embedder_, graph_->vocab().num_tokens());
  for (const uint32_t r : reps) embeddings.Add(cols.tokens()[r]);
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      float* row = &m.data[p * m.dim];
      embeddings.Copy(cols.tokens()[reps[p]], row);
      MarkKeys(cols, reps[p], k, row + d);
    }
  });
  return m;
}

FeatureMatrix Vectorizer::EdgePatternFeatures(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  const std::vector<uint32_t>& reps = cols.pattern_rows();
  const size_t d = embedder_->dim();
  const size_t q = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = reps.size();
  m.dim = 3 * d + q;
  m.data.assign(m.num * m.dim, 0.0f);
  EmbeddingTable embeddings(*embedder_, graph_->vocab().num_tokens());
  for (const uint32_t r : reps) {
    embeddings.Add(cols.tokens()[r]);
    embeddings.Add(cols.src_tokens()[r]);
    embeddings.Add(cols.dst_tokens()[r]);
  }
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      const uint32_t r = reps[p];
      float* row = &m.data[p * m.dim];
      embeddings.Copy(cols.tokens()[r], row);
      embeddings.Copy(cols.src_tokens()[r], row + d);
      embeddings.Copy(cols.dst_tokens()[r], row + 2 * d);
      MarkKeys(cols, r, q, row + 3 * d);
    }
  });
  return m;
}

FeatureMatrix Vectorizer::NodeFeatures(const pg::GraphBatch& batch) {
  if (columnar_) {
    return ExpandRows(NodePatternFeatures(batch),
                      NodeColumns(batch).pattern_ids(), pool_);
  }
  const size_t d = embedder_->dim();
  const size_t k = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = batch.node_ids.size();
  m.dim = d + k;
  m.data.assign(m.num * m.dim, 0.0f);
  const std::vector<pg::LabelSetToken>& tokens = NodeTokens(batch);
  const pg::PropertyGraph& graph = *graph_;
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const pg::Node& n = graph.node(batch.node_ids[i]);
      float* row = &m.data[i * m.dim];
      embedder_->Embed(tokens[i], row);
      for (const auto& [key, value] : n.properties.entries()) {
        if (key < k) row[d + key] = 1.0f;
      }
    }
  });
  return m;
}

FeatureMatrix Vectorizer::EdgeFeatures(const pg::GraphBatch& batch) {
  if (columnar_) {
    return ExpandRows(EdgePatternFeatures(batch),
                      EdgeColumns(batch).pattern_ids(), pool_);
  }
  const size_t d = embedder_->dim();
  const size_t q = graph_->vocab().num_keys();
  FeatureMatrix m;
  m.num = batch.edge_ids.size();
  m.dim = 3 * d + q;
  m.data.assign(m.num * m.dim, 0.0f);
  const std::vector<EdgeTokens>& tokens = EdgeTokensFor(batch);
  const pg::PropertyGraph& graph = *graph_;
  util::ParallelFor(pool_, 0, m.num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const pg::Edge& e = graph.edge(batch.edge_ids[i]);
      float* row = &m.data[i * m.dim];
      embedder_->Embed(tokens[i].edge, row);
      embedder_->Embed(tokens[i].src, row + d);
      embedder_->Embed(tokens[i].dst, row + 2 * d);
      for (const auto& [key, value] : e.properties.entries()) {
        if (key < q) row[3 * d + key] = 1.0f;
      }
    }
  });
  return m;
}

std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
Vectorizer::EdgeEndpointTokens(const pg::GraphBatch& batch) {
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>> out;
  if (columnar_) {
    const pg::ColumnStore& cols = EdgeColumns(batch);
    out.reserve(cols.num_rows());
    for (size_t i = 0; i < cols.num_rows(); ++i) {
      out.emplace_back(cols.src_tokens()[i], cols.dst_tokens()[i]);
    }
    return out;
  }
  const std::vector<EdgeTokens>& tokens = EdgeTokensFor(batch);
  out.reserve(tokens.size());
  for (const EdgeTokens& t : tokens) out.emplace_back(t.src, t.dst);
  return out;
}

std::vector<std::vector<uint64_t>> Vectorizer::NodeSets(
    const pg::GraphBatch& batch) {
  const size_t num = batch.node_ids.size();
  const std::vector<pg::LabelSetToken>& tokens = NodeTokens(batch);
  std::vector<std::vector<uint64_t>> sets(num);
  const pg::PropertyGraph& graph = *graph_;
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const pg::Node& n = graph.node(batch.node_ids[i]);
      auto& set = sets[i];
      if (tokens[i] != pg::kNoToken) {
        set.push_back(MinHashLabelElement(tokens[i]));
      }
      for (const auto& [key, value] : n.properties.entries()) {
        set.push_back(MinHashKeyElement(key));
      }
      std::sort(set.begin(), set.end());
    }
  });
  return sets;
}

std::vector<std::vector<uint64_t>> Vectorizer::EdgeSets(
    const pg::GraphBatch& batch) {
  const size_t num = batch.edge_ids.size();
  const std::vector<EdgeTokens>& tokens = EdgeTokensFor(batch);
  std::vector<std::vector<uint64_t>> sets(num);
  const pg::PropertyGraph& graph = *graph_;
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const pg::Edge& e = graph.edge(batch.edge_ids[i]);
      auto& set = sets[i];
      if (tokens[i].edge != pg::kNoToken) {
        set.push_back(MinHashLabelElement(tokens[i].edge));
      }
      if (tokens[i].src != pg::kNoToken) {
        set.push_back(MinHashSrcElement(tokens[i].src));
      }
      if (tokens[i].dst != pg::kNoToken) {
        set.push_back(MinHashDstElement(tokens[i].dst));
      }
      for (const auto& [key, value] : e.properties.entries()) {
        set.push_back(MinHashKeyElement(key));
      }
      std::sort(set.begin(), set.end());
    }
  });
  return sets;
}

// The pattern set producers fill one flat CSR, one set per pattern from its
// representative row. Push order per set is (label, src, dst, keys): the
// tags ascend in that order and key ids ascend within a row, so every set is
// emitted pre-sorted and equals the sorted nested set element for element.

ElementSetCsr Vectorizer::NodePatternSets(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = NodeColumns(batch);
  const std::vector<uint32_t>& reps = cols.pattern_rows();
  const std::vector<uint32_t>& key_offsets = cols.key_offsets();
  const std::vector<pg::PropKeyId>& key_ids = cols.key_ids();
  const size_t num = reps.size();
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t p = 0; p < num; ++p) {
    const uint32_t r = reps[p];
    const uint32_t keys = key_offsets[r + 1] - key_offsets[r];
    const uint32_t label = cols.tokens()[r] != pg::kNoToken ? 1 : 0;
    csr.offsets[p + 1] = csr.offsets[p] + label + keys;
  }
  csr.elements.resize(csr.offsets[num]);
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      const uint32_t r = reps[p];
      uint64_t* out = &csr.elements[csr.offsets[p]];
      if (cols.tokens()[r] != pg::kNoToken) {
        *out++ = MinHashLabelElement(cols.tokens()[r]);
      }
      for (uint32_t k = key_offsets[r]; k < key_offsets[r + 1]; ++k) {
        *out++ = MinHashKeyElement(key_ids[k]);
      }
    }
  });
  return csr;
}

ElementSetCsr Vectorizer::EdgePatternSets(const pg::GraphBatch& batch) {
  const pg::ColumnStore& cols = EdgeColumns(batch);
  const std::vector<uint32_t>& reps = cols.pattern_rows();
  const std::vector<uint32_t>& key_offsets = cols.key_offsets();
  const std::vector<pg::PropKeyId>& key_ids = cols.key_ids();
  const size_t num = reps.size();
  ElementSetCsr csr;
  csr.offsets.assign(num + 1, 0);
  for (size_t p = 0; p < num; ++p) {
    const uint32_t r = reps[p];
    const uint32_t keys = key_offsets[r + 1] - key_offsets[r];
    const uint32_t tokens = (cols.tokens()[r] != pg::kNoToken ? 1 : 0) +
                            (cols.src_tokens()[r] != pg::kNoToken ? 1 : 0) +
                            (cols.dst_tokens()[r] != pg::kNoToken ? 1 : 0);
    csr.offsets[p + 1] = csr.offsets[p] + tokens + keys;
  }
  csr.elements.resize(csr.offsets[num]);
  util::ParallelFor(pool_, 0, num, kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi; ++p) {
      const uint32_t r = reps[p];
      uint64_t* out = &csr.elements[csr.offsets[p]];
      if (cols.tokens()[r] != pg::kNoToken) {
        *out++ = MinHashLabelElement(cols.tokens()[r]);
      }
      if (cols.src_tokens()[r] != pg::kNoToken) {
        *out++ = MinHashSrcElement(cols.src_tokens()[r]);
      }
      if (cols.dst_tokens()[r] != pg::kNoToken) {
        *out++ = MinHashDstElement(cols.dst_tokens()[r]);
      }
      for (uint32_t k = key_offsets[r]; k < key_offsets[r + 1]; ++k) {
        *out++ = MinHashKeyElement(key_ids[k]);
      }
    }
  });
  return csr;
}

ElementSetCsr Vectorizer::NodeSetSpans(const pg::GraphBatch& batch) {
  return ExpandSets(NodePatternSets(batch), NodeColumns(batch).pattern_ids(),
                    pool_);
}

ElementSetCsr Vectorizer::EdgeSetSpans(const pg::GraphBatch& batch) {
  return ExpandSets(EdgePatternSets(batch), EdgeColumns(batch).pattern_ids(),
                    pool_);
}

}  // namespace pghive::core
