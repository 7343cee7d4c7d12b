#ifndef PGHIVE_CORE_VECTORIZER_H_
#define PGHIVE_CORE_VECTORIZER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "embed/embedder.h"
#include "pg/batch.h"
#include "pg/column_store.h"
#include "pg/graph.h"
#include "util/thread_pool.h"

namespace pghive::core {

/// A dense row-major feature matrix: `num` rows of `dim` floats.
struct FeatureMatrix {
  std::vector<float> data;
  size_t num = 0;
  size_t dim = 0;

  const float* row(size_t i) const { return &data[i * dim]; }
};

/// An owning CSR of MinHash element sets: set i's elements are
/// elements[offsets[i] .. offsets[i+1]). The columnar producers emit this
/// flat layout instead of vector<vector<uint64_t>>; lsh::SetSpans views it.
struct ElementSetCsr {
  std::vector<uint64_t> elements;
  std::vector<uint32_t> offsets;  // num() + 1 entries; empty when num() == 0.

  size_t num() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// The row -> pattern map of a dense N-row input, where every row is its
/// own pattern: what the dense entry points hand to the pattern code.
std::vector<uint32_t> IdentityPatternMap(size_t num);

/// Builds the hybrid representation vectors of §4.1.
///
/// Nodes:  f_v in R^{d+K}   = [ Word2Vec(labels) | binary property vector ]
/// Edges:  f_e in R^{3d+Q}  = [ W2V(edge) | W2V(src) | W2V(dst) | binary ]
///
/// where K / Q are the numbers of distinct node / edge property keys in the
/// vocabulary at vectorization time, and an absent label contributes a zero
/// block. The binary block uses a global key-id -> column map shared by all
/// rows of one call so identical patterns produce identical vectors.
///
/// The unit of work is the structural pattern, not the element. Every batch
/// is first built into a pg::ColumnStore per side; that build is the
/// sequential token-intern pre-pass (in canonical row order, so token ids
/// never depend on the thread count) and it numbers the rows by pattern.
/// Node/EdgePatternFeatures then emit one feature row per pattern (row p
/// describes the store's pattern_rows()[p]) and Node/EdgePatternSets one
/// MinHash set per pattern; each distinct token is embedded once. Those
/// P-row outputs are what PgHive clusters. The parallel phases only read the
/// store and the embedder and write their own rows, so output is
/// bit-identical at every pool size. After the column builds every token of
/// the batch (edge endpoint tokens included) is interned, which is what lets
/// the later node/edge tracks share the vocabulary read-only.
///
/// The dense N-row entry points (NodeFeatures, EdgeFeatures, NodeSetSpans,
/// EdgeSetSpans) are adapters: they expand the pattern output through the
/// store's row -> pattern map, so row i is a copy of its pattern's row and
/// equals what a per-element sweep would produce bit for bit. columnar =
/// false keeps the per-element row loops of NodeFeatures/EdgeFeatures (and
/// NodeSets/EdgeSets) as the reference implementation the equivalence tests
/// and the row-vs-columnar bench compare against.
class Vectorizer {
 public:
  Vectorizer(pg::PropertyGraph* graph, const embed::LabelEmbedder* embedder,
             util::ThreadPool* pool = nullptr, bool columnar = true);

  /// One feature row per node pattern of the batch: row p is the vector of
  /// every node of pattern p (see NodeColumns(batch).pattern_ids()).
  FeatureMatrix NodePatternFeatures(const pg::GraphBatch& batch);

  /// One feature row per edge pattern of the batch.
  FeatureMatrix EdgePatternFeatures(const pg::GraphBatch& batch);

  /// One MinHash element set per node / edge pattern, as a CSR; same
  /// element universe and row order as the pattern features.
  ElementSetCsr NodePatternSets(const pg::GraphBatch& batch);
  ElementSetCsr EdgePatternSets(const pg::GraphBatch& batch);

  /// Feature vectors for the batch's nodes (row i corresponds to
  /// batch.node_ids[i]): NodePatternFeatures expanded to one row per node.
  FeatureMatrix NodeFeatures(const pg::GraphBatch& batch);

  /// Feature vectors for the batch's edges, expanded the same way.
  FeatureMatrix EdgeFeatures(const pg::GraphBatch& batch);

  /// MinHash element sets for nodes: the label-set token plus property keys,
  /// disambiguated into one uint64 universe.
  std::vector<std::vector<uint64_t>> NodeSets(const pg::GraphBatch& batch);

  /// MinHash element sets for edges: edge token, source token, target token,
  /// plus edge property keys.
  std::vector<std::vector<uint64_t>> EdgeSets(const pg::GraphBatch& batch);

  /// MinHash element sets per batch row, as one flat CSR: the pattern sets
  /// expanded through the row -> pattern map. Element multisets per row
  /// equal NodeSets/EdgeSets, and rows come out pre-sorted for free: the tag
  /// constants ascend in push order (label < src < dst < key) and key ids
  /// ascend within a row, so the per-row sort of the nested producers is
  /// skipped entirely.
  ElementSetCsr NodeSetSpans(const pg::GraphBatch& batch);
  ElementSetCsr EdgeSetSpans(const pg::GraphBatch& batch);

  /// The batch's column stores (built on first use, cached per id list; the
  /// build is the sequential token-intern pre-pass and numbers the patterns).
  const pg::ColumnStore& NodeColumns(const pg::GraphBatch& batch);
  const pg::ColumnStore& EdgeColumns(const pg::GraphBatch& batch);

  bool columnar() const { return columnar_; }

  /// Per-edge (src, dst) label-set token pairs from the cached intern
  /// pre-pass (row i corresponds to batch.edge_ids[i]). After the edge
  /// columns (or EdgeSets) were built for the same batch this is a pure
  /// read.
  std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>
  EdgeEndpointTokens(const pg::GraphBatch& batch);

 private:
  struct EdgeTokens {
    pg::LabelSetToken edge, src, dst;
  };

  /// The sequential token-intern pre-passes, cached per id list: a token
  /// depends only on the element's labels, so as long as the graph is
  /// unchanged (which the vectorizer assumes for its lifetime — vocabulary
  /// dimensions must stay fixed anyway) the same ids yield the same tokens.
  /// The cache spares the MinHash path a second serial pass when
  /// NodeSets/EdgeSets follow NodeFeatures/EdgeFeatures on the same batch.
  const std::vector<pg::LabelSetToken>& NodeTokens(const pg::GraphBatch& batch);
  const std::vector<EdgeTokens>& EdgeTokensFor(const pg::GraphBatch& batch);

  pg::PropertyGraph* graph_;
  const embed::LabelEmbedder* embedder_;
  util::ThreadPool* pool_;
  bool columnar_;
  std::vector<pg::NodeId> node_token_ids_;
  std::vector<pg::LabelSetToken> node_tokens_;
  bool node_tokens_valid_ = false;
  std::vector<pg::EdgeId> edge_token_ids_;
  std::vector<EdgeTokens> edge_tokens_;
  bool edge_tokens_valid_ = false;
  // Columnar-mode caches, keyed by the batch id lists like the token caches.
  std::vector<pg::NodeId> node_col_ids_;
  pg::ColumnStore node_cols_;
  bool node_cols_valid_ = false;
  std::vector<pg::EdgeId> edge_col_ids_;
  pg::ColumnStore edge_cols_;
  bool edge_cols_valid_ = false;
};

/// Element-universe tags for MinHash sets (exposed for tests).
uint64_t MinHashLabelElement(uint32_t token);
uint64_t MinHashSrcElement(uint32_t token);
uint64_t MinHashDstElement(uint32_t token);
uint64_t MinHashKeyElement(uint32_t key);

}  // namespace pghive::core

#endif  // PGHIVE_CORE_VECTORIZER_H_
