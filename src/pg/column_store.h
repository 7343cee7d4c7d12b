#ifndef PGHIVE_PG_COLUMN_STORE_H_
#define PGHIVE_PG_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pg/graph.h"
#include "pg/property_map.h"

namespace pghive::pg {

/// One presence bit per row of a ColumnStore, packed into 64-bit words.
class PresenceBitmap {
 public:
  PresenceBitmap() = default;
  explicit PresenceBitmap(size_t rows)
      : rows_(rows), words_((rows + 63) / 64, 0) {}

  size_t rows() const { return rows_; }
  const std::vector<uint64_t>& words() const { return words_; }

  void Set(size_t row) { words_[row >> 6] |= 1ULL << (row & 63); }
  bool Test(size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1ULL;
  }

  /// Invokes fn(row) for every set bit in [lo, hi), ascending. Scans whole
  /// words, so absent stretches cost one test per 64 rows.
  template <typename Fn>
  void ForEachSet(size_t lo, size_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    size_t w = lo >> 6;
    const size_t w_end = (hi + 63) >> 6;
    for (; w < w_end; ++w) {
      uint64_t word = words_[w];
      if (word == 0) continue;
      // Mask off bits outside [lo, hi) in the boundary words.
      if (w == (lo >> 6) && (lo & 63) != 0) {
        word &= ~0ULL << (lo & 63);
      }
      if (w == (hi >> 6) && (hi & 63) != 0) {
        word &= (1ULL << (hi & 63)) - 1;
      }
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn((w << 6) + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  size_t rows_ = 0;
  std::vector<uint64_t> words_;
};

/// The rows of one ColumnStore that carry `key`, as a presence bitmap. A key
/// stored with a null value is present.
struct PropertyColumn {
  PropKeyId key = 0;
  PresenceBitmap present;
};

/// A struct-of-arrays snapshot of one batch's elements (nodes or edges, in
/// batch order): interned label-set token-id arrays, endpoint tokens and ids
/// for edges, a CSR of the per-row sorted property-key sets, and one
/// presence bitmap per distinct key — the contiguous layout the vectorize /
/// LSH / corpus inner loops scan instead of chasing per-row PropertyMap
/// allocations (the Arrow-table-per-property-set idea of KatanaGraph's
/// RDGCore, scoped to a batch). It holds no property values: its consumers
/// only ask which keys a row carries.
///
/// Built once per batch from the row representation, which stays the source
/// of truth. Building interns label-set tokens sequentially in a canonical
/// order (edges: src, edge, dst per edge; nodes: row order), the same order
/// the row path uses, so token ids — and therefore every downstream schema
/// — are identical whichever representation feeds the pipeline.
class ColumnStore {
 public:
  ColumnStore() = default;

  size_t num_rows() const { return ids_.size(); }

  /// The element ids this store was built from, in row order.
  const std::vector<uint64_t>& ids() const { return ids_; }

  /// Label-set token per row (nodes: the node's token; edges: the edge's
  /// own token). kNoToken for unlabeled elements.
  const std::vector<LabelSetToken>& tokens() const { return tokens_; }

  /// Edge stores only: endpoint label-set tokens and endpoint node ids.
  const std::vector<LabelSetToken>& src_tokens() const { return src_tokens_; }
  const std::vector<LabelSetToken>& dst_tokens() const { return dst_tokens_; }
  const std::vector<NodeId>& src_ids() const { return src_ids_; }
  const std::vector<NodeId>& dst_ids() const { return dst_ids_; }

  /// CSR of the per-row property-key sets: row i's sorted keys are
  /// key_ids()[key_offsets()[i] .. key_offsets()[i+1]).
  const std::vector<uint32_t>& key_offsets() const { return key_offsets_; }
  const std::vector<PropKeyId>& key_ids() const { return key_ids_; }

  /// One presence column per distinct key, sorted by key id.
  const std::vector<PropertyColumn>& columns() const { return columns_; }

  /// Writes 1.0f into data[(row - lo) * stride + offset + key] for every
  /// (row, key) presence pair with key < max_key and row in [lo, hi) — the
  /// binary block of the §4.1 representation vectors as a per-column bitmap
  /// sweep. `data` points at the feature row of `lo`.
  void FillBinaryBlock(size_t lo, size_t hi, size_t max_key, float* data,
                       size_t stride, size_t offset) const;

  /// Builds the store for `ids` (in order) against `graph`. Interns any
  /// unseen label-set tokens (nodes: row order).
  static ColumnStore ForNodes(PropertyGraph& graph,
                              const std::vector<NodeId>& ids);

  /// Edge version; also captures endpoint tokens and ids. Interning order
  /// per edge is (src, edge, dst) — the corpus-builder order the Word2Vec
  /// token-id history depends on.
  static ColumnStore ForEdges(PropertyGraph& graph,
                              const std::vector<EdgeId>& ids);

 private:
  void BuildPropertyColumns(const std::vector<const PropertyMap*>& rows);

  std::vector<uint64_t> ids_;
  std::vector<LabelSetToken> tokens_;
  std::vector<LabelSetToken> src_tokens_;
  std::vector<LabelSetToken> dst_tokens_;
  std::vector<NodeId> src_ids_;
  std::vector<NodeId> dst_ids_;
  std::vector<uint32_t> key_offsets_;
  std::vector<PropKeyId> key_ids_;
  std::vector<PropertyColumn> columns_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_COLUMN_STORE_H_
