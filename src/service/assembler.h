#ifndef PGHIVE_SERVICE_ASSEMBLER_H_
#define PGHIVE_SERVICE_ASSEMBLER_H_

#include <string>
#include <string_view>
#include <vector>

#include "pg/batch.h"
#include "pg/graph.h"
#include "util/status.h"

namespace pghive::service {

/// Rebuilds a PropertyGraph incrementally from pghived ingest payloads such
/// that after the last batch the graph is byte-for-byte the one the one-shot
/// CLI would have loaded: same dense ids, same label/key intern order, same
/// property values. That identity is what makes a streamed discovery run
/// reproduce the one-shot schema exactly (the label/key id permutation feeds
/// the feature layout, which feeds the LSH hashes).
///
/// Payload grammar (line-oriented; fields escaped as in pg graph text):
///
///   G <num_nodes> <num_edges>   pre-size the graph (first line, batch 1)
///   V L <label> / V K <key>     vocabulary preamble in one-shot intern order
///   N <id> <labels> <props>     materialize node; member of this batch
///   R <id> <labels> <props>     materialize node; NOT a member (an endpoint
///                               of an early edge, sent ahead of its batch)
///   M <id>                      mark an already-materialized node a member
///   E <id> <src> <dst> ...      materialize edge; member of this batch
///
/// The G header materializes every element as a placeholder (empty labels,
/// 0/0 endpoints) so ids are dense from the start and graph-global sizes
/// match the one-shot run; placeholders are never read before their record
/// arrives because discovery only touches batch members and their endpoints,
/// and the client materializes endpoints (R lines) before edges that use
/// them. CheckComplete() verifies no placeholder survived the stream.
class GraphAssembler {
 public:
  /// `graph` must be empty and outlive the assembler.
  explicit GraphAssembler(pg::PropertyGraph* graph) : graph_(graph) {}

  /// Applies one ingest payload; member element ids append to `*batch` in
  /// payload order (which the client emits in SplitIntoBatches order).
  util::Status ApplyPayload(const std::string& payload, pg::GraphBatch* batch);

  /// Ok when every declared element has been materialized.
  util::Status CheckComplete() const;

  size_t nodes_filled() const { return nodes_filled_; }
  size_t edges_filled() const { return edges_filled_; }

  /// Appends the assembler's stream-progress state (sized flag and the two
  /// fill bitmaps, bit-packed) — the assembler section of a self-contained
  /// pghived session snapshot (util/binio framing). The graph contents
  /// themselves are saved separately as graph text.
  void AppendStateTo(std::string* out) const;

  /// Renders everything assembled so far as one ingest payload (G header,
  /// then an R line per materialized node and an E line per materialized
  /// edge). Applied to an empty graph that already holds this vocabulary, it
  /// rebuilds the same graph and fill state; empty before the G header.
  std::string AssembledPayload() const;

  /// Restores AppendStateTo bytes. The attached graph must already hold the
  /// replayed stream (bitmap sizes are validated against it); corrupt bytes
  /// fail with ParseError, a size mismatch with FailedPrecondition.
  util::Status RestoreState(std::string_view bytes);

 private:
  util::Status ApplyLine(const std::string& line, pg::GraphBatch* batch);
  util::Status ApplyHeader(const std::string& line);
  util::Status ApplyVocab(const std::string& line);
  util::Status MaterializeNode(const std::string& line, bool member,
                               pg::GraphBatch* batch);
  util::Status MaterializeEdge(const std::string& line, pg::GraphBatch* batch);

  pg::PropertyGraph* graph_;
  bool sized_ = false;
  std::vector<bool> node_filled_;
  std::vector<bool> edge_filled_;
  size_t nodes_filled_ = 0;
  size_t edges_filled_ = 0;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_ASSEMBLER_H_
