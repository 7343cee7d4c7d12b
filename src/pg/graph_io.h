#ifndef PGHIVE_PG_GRAPH_IO_H_
#define PGHIVE_PG_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pg/graph.h"
#include "util/status.h"

namespace pghive::pg {

// The graph-text format: one record per line, fields separated by
// whitespace (README "Graph text format" has the full grammar):
//
//   N <id> <labels> [<props>]
//   E <id> <src> <dst> <labels> [<props>]
//
// <labels> is "-" for none, else labels joined by '|'. <props> is
// key=value pairs joined by ';' (left out, or "-", for none); each value is
// re-typed on load by ParseValueLiteral. Blank lines and lines starting with '#' are skipped, and
// a token after <props> is a ParseError.

/// One element line split into its fields but not yet applied to a graph.
/// `labels` and `props` are still-escaped views into the scanned line, so
/// splitting allocates nothing.
struct ElementLine {
  bool is_edge = false;
  uint64_t id = 0;
  uint64_t src = 0;  ///< Edges only.
  uint64_t dst = 0;  ///< Edges only.
  std::string_view labels;
  std::string_view props;
};

/// Splits one element line. Its first token must be `node_tag` (a node
/// line) or "E" (an edge line); pghived's ingest payloads also tag node
/// lines 'R'. Every failure is a ParseError that quotes the line.
util::StatusOr<ElementLine> SplitElementLine(std::string_view line,
                                             char node_tag = 'N');

/// Interns the labels of a <labels> field into `vocab` in field order and
/// returns their ids in that order (not yet normalized).
std::vector<LabelId> InternLabelField(std::string_view field,
                                      Vocabulary* vocab);

/// Sets every key=value pair of a <props> field on `props`, interning keys
/// in field order; an empty field or "-" sets none. A pair without exactly
/// one unescaped '=' (a bare key, `a=b=c`, an empty pair) stops the field
/// with a ParseError that quotes the pair; the pairs before it stay applied.
util::Status ApplyPropsField(std::string_view field, Vocabulary* vocab,
                             PropertyMap* props);

/// Appends the graph-text line of one node / edge of `graph` (no trailing
/// newline): the inverse of SplitElementLine + InternLabelField +
/// ApplyPropsField. `tag` replaces the node line's 'N'.
void AppendNodeLine(const PropertyGraph& graph, const Node& node, char tag,
                    std::string* out);
void AppendEdgeLine(const PropertyGraph& graph, const Edge& edge,
                    std::string* out);

/// Escaping used for label and property fields, so records survive
/// line-oriented transports: '\\' ';' '=' and newline become "\\\\" "\\s"
/// "\\e" "\\n", and '|' and the other whitespace characters (space, tab,
/// '\r', '\v', '\f') get a '\\' in front. UnescapeField turns any other
/// "\\X" into X.
std::string EscapeField(std::string_view s);
std::string UnescapeField(std::string_view s);

/// Serializes a property graph to graph text, every node line then every
/// edge line, each ending in '\n'. Values are rendered like
/// Value::ToString and re-typed by probing on load, matching how data
/// arrives from a real PG store's CSV export.
std::string SaveGraphText(const PropertyGraph& graph);

/// Writes SaveGraphText output to a file.
util::Status SaveGraphFile(const PropertyGraph& graph,
                           const std::string& path);

/// Parses the graph-text format.
util::StatusOr<PropertyGraph> LoadGraphText(const std::string& text);

/// Parses the graph-text format into an existing graph that has no nodes
/// or edges yet. The graph's vocabulary MAY already hold interned labels and
/// keys — replayed records then resolve to their existing ids — which is how
/// pghived's load-state path rebuilds a mid-stream graph after restoring the
/// snapshotted vocabulary (whose id order the stream preamble had fixed).
/// Errors name the offending line number.
util::Status LoadGraphTextInto(std::string_view text, PropertyGraph* graph);

/// Reads a file written by SaveGraphFile.
util::StatusOr<PropertyGraph> LoadGraphFile(const std::string& path);

}  // namespace pghive::pg

#endif  // PGHIVE_PG_GRAPH_IO_H_
