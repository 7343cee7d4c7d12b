#include "pg/column_store.h"

#include <algorithm>

namespace pghive::pg {

void ColumnStore::BuildPropertyColumns(
    const std::vector<const PropertyMap*>& rows) {
  const size_t n = rows.size();

  // Key CSR + the distinct-key universe in one pass; each row is already
  // sorted by key id.
  key_offsets_.assign(n + 1, 0);
  size_t total_keys = 0;
  for (size_t r = 0; r < n; ++r) {
    total_keys += rows[r]->size();
    key_offsets_[r + 1] = static_cast<uint32_t>(total_keys);
  }
  key_ids_.reserve(total_keys);
  PropKeyId max_key = 0;
  for (size_t r = 0; r < n; ++r) {
    for (const auto& [key, value] : rows[r]->entries()) {
      key_ids_.push_back(key);
      max_key = std::max(max_key, key);
    }
  }

  // Key ids come from the vocabulary — a small dense universe — so the
  // distinct set and the key -> column mapping are one O(max_key) scratch
  // table instead of an O(total log total) sort + per-entry binary search.
  std::vector<uint32_t> col_of;
  if (total_keys > 0) {
    constexpr uint32_t kAbsent = UINT32_MAX;
    col_of.assign(static_cast<size_t>(max_key) + 1, kAbsent);
    for (const PropKeyId key : key_ids_) col_of[key] = 0;
    uint32_t num_columns = 0;
    for (uint32_t& slot : col_of) {
      if (slot != kAbsent) slot = num_columns++;
    }
    columns_.resize(num_columns);
    for (size_t k = 0; k < col_of.size(); ++k) {
      if (col_of[k] == kAbsent) continue;
      PropertyColumn& col = columns_[col_of[k]];
      col.key = static_cast<PropKeyId>(k);
      col.present = PresenceBitmap(n);
    }
  }
  for (size_t r = 0; r < n; ++r) {
    for (const auto& [key, value] : rows[r]->entries()) {
      columns_[col_of[key]].present.Set(r);
    }
  }
}

void ColumnStore::FillBinaryBlock(size_t lo, size_t hi, size_t max_key,
                                  float* data, size_t stride,
                                  size_t offset) const {
  for (const PropertyColumn& col : columns_) {
    if (col.key >= max_key) break;  // Columns are sorted by key id.
    const size_t key = col.key;
    col.present.ForEachSet(lo, hi, [&](size_t row) {
      data[(row - lo) * stride + offset + key] = 1.0f;
    });
  }
}

ColumnStore ColumnStore::ForNodes(PropertyGraph& graph,
                                  const std::vector<NodeId>& ids) {
  ColumnStore store;
  store.ids_ = ids;
  store.tokens_.reserve(ids.size());
  std::vector<const PropertyMap*> rows;
  rows.reserve(ids.size());
  for (const NodeId id : ids) {
    const Node& n = graph.node(id);
    store.tokens_.push_back(graph.vocab().TokenForLabelSet(n.labels));
    rows.push_back(&n.properties);
  }
  store.BuildPropertyColumns(rows);
  return store;
}

ColumnStore ColumnStore::ForEdges(PropertyGraph& graph,
                                  const std::vector<EdgeId>& ids) {
  ColumnStore store;
  store.ids_ = ids;
  store.tokens_.reserve(ids.size());
  store.src_tokens_.reserve(ids.size());
  store.dst_tokens_.reserve(ids.size());
  store.src_ids_.reserve(ids.size());
  store.dst_ids_.reserve(ids.size());
  std::vector<const PropertyMap*> rows;
  rows.reserve(ids.size());
  Vocabulary& vocab = graph.vocab();
  for (const EdgeId id : ids) {
    const Edge& e = graph.edge(id);
    // Intern order per edge is (src, edge, dst) — the sentence order the
    // corpus builder emits, which pins Word2Vec token-id history.
    const LabelSetToken src = vocab.TokenForLabelSet(graph.node(e.src).labels);
    const LabelSetToken own = vocab.TokenForLabelSet(e.labels);
    const LabelSetToken dst = vocab.TokenForLabelSet(graph.node(e.dst).labels);
    store.src_tokens_.push_back(src);
    store.tokens_.push_back(own);
    store.dst_tokens_.push_back(dst);
    store.src_ids_.push_back(e.src);
    store.dst_ids_.push_back(e.dst);
    rows.push_back(&e.properties);
  }
  store.BuildPropertyColumns(rows);
  return store;
}

}  // namespace pghive::pg
