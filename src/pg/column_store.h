#ifndef PGHIVE_PG_COLUMN_STORE_H_
#define PGHIVE_PG_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pg/graph.h"
#include "pg/property_map.h"

namespace pghive::pg {

/// A struct-of-arrays snapshot of one batch's elements (nodes or edges, in
/// batch order): interned label-set token-id arrays, endpoint tokens and ids
/// for edges, a CSR of the per-row sorted property-key sets, and a dense
/// structural-pattern id per row. It holds no property values: its consumers
/// only ask which keys a row carries.
///
/// Pattern ids are what the discovery pipeline works on. Two rows with the
/// same pattern key get the same §4.1 feature row and the same MinHash set,
/// so they always share an LSH signature and a cluster; the vectorizer, the
/// adaptive sampler, the hashers and the candidate builder therefore run
/// once per pattern and map rows onto patterns through pattern_ids(). The
/// key is (label set, key set) for nodes and (label set, src label set, dst
/// label set, key set) for edges, with label sets compared as normalized
/// label-id vectors (never as joined token strings, so two sets whose names
/// happen to join to the same token stay apart). Ids are numbered in
/// first-seen row order and are local to one store, i.e. to one batch.
///
/// Built once per batch from the row representation, which stays the source
/// of truth. The build interns each distinct label set's token once, through
/// a per-build memo keyed by the label-id vector, in a canonical order
/// (edges: src, edge, dst per edge; nodes: row order) — the order the row
/// path uses — so token ids, and therefore every downstream schema, are
/// identical whichever representation feeds the pipeline.
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

  /// Structural-pattern id per row, dense in [0, num_patterns()) and
  /// numbered in first-seen row order.
  const std::vector<uint32_t>& pattern_ids() const { return pattern_ids_; }

  /// The first row of each pattern, ascending: pattern p's representative,
  /// whose tokens and keys every row of the pattern shares.
  const std::vector<uint32_t>& pattern_rows() const { return pattern_rows_; }

  size_t num_patterns() const { return pattern_rows_.size(); }

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
  /// Appends the next row's key set to the key CSR.
  void AppendKeys(const PropertyMap& props);

  /// Numbers the rows by pattern. `label_sets` holds `per_row` label-set
  /// memo slots per row (nodes 1, edges 3); the row's key set completes the
  /// key. Needs the key CSR.
  void AssignPatterns(const std::vector<uint32_t>& label_sets, size_t per_row);

  std::vector<uint64_t> ids_;
  std::vector<LabelSetToken> tokens_;
  std::vector<LabelSetToken> src_tokens_;
  std::vector<LabelSetToken> dst_tokens_;
  std::vector<NodeId> src_ids_;
  std::vector<NodeId> dst_ids_;
  std::vector<uint32_t> key_offsets_;
  std::vector<PropKeyId> key_ids_;
  std::vector<uint32_t> pattern_ids_;
  std::vector<uint32_t> pattern_rows_;
};

}  // namespace pghive::pg

#endif  // PGHIVE_PG_COLUMN_STORE_H_
