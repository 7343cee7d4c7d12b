#include "pg/column_store.h"

#include <algorithm>
#include <unordered_map>

#include "util/rng.h"

namespace pghive::pg {

namespace {

struct IdVectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    uint64_t h = v.size();
    for (const uint32_t x : v) h = util::HashCombine(h, x);
    return static_cast<size_t>(h);
  }
};

/// Dense ids for id vectors, in first-seen order.
using IdVectorMap =
    std::unordered_map<std::vector<uint32_t>, uint32_t, IdVectorHash>;

/// The per-build label-set memo: a dense slot per distinct (normalized)
/// label-id vector, whose token is interned on first sight only. Calling
/// Slot in the canonical order therefore interns tokens in exactly the
/// order a per-element TokenForLabelSet walk would, while the sort-and-join
/// runs once per distinct set instead of once per element.
class LabelSetMemo {
 public:
  explicit LabelSetMemo(Vocabulary* vocab) : vocab_(vocab) {}

  uint32_t Slot(const std::vector<LabelId>& labels) {
    const auto [it, fresh] =
        slots_.try_emplace(labels, static_cast<uint32_t>(tokens_.size()));
    if (fresh) tokens_.push_back(vocab_->TokenForLabelSet(labels));
    return it->second;
  }

  LabelSetToken token(uint32_t slot) const { return tokens_[slot]; }

 private:
  Vocabulary* vocab_;
  IdVectorMap slots_;
  std::vector<LabelSetToken> tokens_;
};

}  // namespace

void ColumnStore::AppendKeys(const PropertyMap& props) {
  // Entries are sorted by key id, so the row's CSR slice is too.
  for (const auto& [key, value] : props.entries()) key_ids_.push_back(key);
  key_offsets_.push_back(static_cast<uint32_t>(key_ids_.size()));
}

void ColumnStore::AssignPatterns(const std::vector<uint32_t>& label_sets,
                                 size_t per_row) {
  const size_t n = ids_.size();
  pattern_ids_.resize(n);
  IdVectorMap seen;
  std::vector<uint32_t> key;  // The row's label-set slots, then its keys.
  for (size_t r = 0; r < n; ++r) {
    key.assign(label_sets.begin() + r * per_row,
               label_sets.begin() + (r + 1) * per_row);
    key.insert(key.end(), key_ids_.begin() + key_offsets_[r],
               key_ids_.begin() + key_offsets_[r + 1]);
    const auto [it, fresh] =
        seen.try_emplace(key, static_cast<uint32_t>(pattern_rows_.size()));
    if (fresh) pattern_rows_.push_back(static_cast<uint32_t>(r));
    pattern_ids_[r] = it->second;
  }
}

ColumnStore ColumnStore::ForNodes(PropertyGraph& graph,
                                  const std::vector<NodeId>& ids) {
  ColumnStore store;
  store.ids_ = ids;
  store.tokens_.reserve(ids.size());
  store.key_offsets_.reserve(ids.size() + 1);
  store.key_offsets_.push_back(0);
  LabelSetMemo memo(&graph.vocab());
  std::vector<uint32_t> label_sets;
  label_sets.reserve(ids.size());
  for (const NodeId id : ids) {
    const Node& n = graph.node(id);
    label_sets.push_back(memo.Slot(n.labels));
    store.tokens_.push_back(memo.token(label_sets.back()));
    store.AppendKeys(n.properties);
  }
  store.AssignPatterns(label_sets, 1);
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
  store.key_offsets_.reserve(ids.size() + 1);
  store.key_offsets_.push_back(0);
  LabelSetMemo memo(&graph.vocab());
  std::vector<uint32_t> label_sets;  // (edge, src, dst) slots per row.
  label_sets.reserve(3 * ids.size());
  for (const EdgeId id : ids) {
    const Edge& e = graph.edge(id);
    // Intern order per edge is (src, edge, dst) — the sentence order the
    // corpus builder emits, which pins Word2Vec token-id history.
    const uint32_t src = memo.Slot(graph.node(e.src).labels);
    const uint32_t own = memo.Slot(e.labels);
    const uint32_t dst = memo.Slot(graph.node(e.dst).labels);
    label_sets.insert(label_sets.end(), {own, src, dst});
    store.src_tokens_.push_back(memo.token(src));
    store.tokens_.push_back(memo.token(own));
    store.dst_tokens_.push_back(memo.token(dst));
    store.src_ids_.push_back(e.src);
    store.dst_ids_.push_back(e.dst);
    store.AppendKeys(e.properties);
  }
  store.AssignPatterns(label_sets, 3);
  return store;
}

}  // namespace pghive::pg
