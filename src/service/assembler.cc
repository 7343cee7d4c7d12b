#include "service/assembler.h"

#include <sstream>
#include <utility>

#include "pg/graph_io.h"
#include "util/binio.h"
#include "util/parse.h"

namespace pghive::service {

namespace {

/// Hard ceiling on the element counts a G header may declare. The header
/// pre-sizes the graph with placeholders, so an unchecked count would let a
/// one-line request allocate unbounded memory; 2^28 elements is far above
/// any real dataset while keeping the worst-case placeholder allocation in
/// the low gigabytes.
constexpr uint64_t kMaxDeclaredElements = uint64_t{1} << 28;

util::StatusOr<uint64_t> ParseId(const std::string& text,
                                 const std::string& what) {
  auto parsed = util::ParseInt64(text);
  if (!parsed.ok() || *parsed < 0) {
    return util::Status::ParseError("bad " + what + " '" + text + "'");
  }
  return static_cast<uint64_t>(*parsed);
}

void PutBitmap(std::string* out, const std::vector<bool>& bits) {
  util::PutU64(out, bits.size());
  uint8_t byte = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      util::PutU8(out, byte);
      byte = 0;
    }
  }
  if (bits.size() % 8 != 0) util::PutU8(out, byte);
}

bool ReadBitmap(util::ByteReader* in, std::vector<bool>* bits) {
  uint64_t n = in->ReadU64();
  // Bit-packed: n bits need ceil(n/8) bytes of remaining input.
  if (!in->ok() || !in->Has((n + 7) / 8)) {
    in->Fail();
    return false;
  }
  bits->assign(n, false);
  uint8_t byte = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (i % 8 == 0) byte = in->ReadU8();
    (*bits)[i] = (byte >> (i % 8)) & 1;
  }
  return in->ok();
}

}  // namespace

util::Status GraphAssembler::ApplyPayload(const std::string& payload,
                                          pg::GraphBatch* batch) {
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    util::Status status = ApplyLine(line, batch);
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

util::Status GraphAssembler::ApplyLine(const std::string& line,
                                       pg::GraphBatch* batch) {
  switch (line[0]) {
    case 'G':
      return ApplyHeader(line);
    case 'V':
      return ApplyVocab(line);
    case 'N':
      return MaterializeNode(line, /*member=*/true, batch);
    case 'R':
      return MaterializeNode(line, /*member=*/false, batch);
    case 'M': {
      if (line.size() < 3 || line[1] != ' ') {
        return util::Status::ParseError("bad member line '" + line + "'");
      }
      auto id = ParseId(line.substr(2), "member id");
      if (!id.ok()) return id.status();
      if (*id >= node_filled_.size() || !node_filled_[*id]) {
        return util::Status::ParseError(
            "member marker for unmaterialized node " + std::to_string(*id));
      }
      batch->node_ids.push_back(*id);
      return util::Status::Ok();
    }
    case 'E':
      return MaterializeEdge(line, batch);
    default:
      return util::Status::ParseError("unknown ingest record '" + line + "'");
  }
}

util::Status GraphAssembler::ApplyHeader(const std::string& line) {
  if (sized_) {
    return util::Status::FailedPrecondition("duplicate G header");
  }
  if (graph_->num_nodes() != 0 || graph_->num_edges() != 0) {
    return util::Status::FailedPrecondition("G header on a non-empty graph");
  }
  std::istringstream ls(line);
  std::string kind;
  uint64_t num_nodes = 0, num_edges = 0;
  if (!(ls >> kind >> num_nodes) || kind != "G") {
    return util::Status::ParseError("bad G header '" + line + "'");
  }
  ls >> num_edges;
  if (num_edges > 0 && num_nodes == 0) {
    return util::Status::ParseError("edges declared on a node-less graph");
  }
  if (num_nodes > kMaxDeclaredElements || num_edges > kMaxDeclaredElements) {
    return util::Status::OutOfRange(
        "G header declares " + std::to_string(num_nodes) + " nodes / " +
        std::to_string(num_edges) + " edges; the limit is " +
        std::to_string(kMaxDeclaredElements) + " each");
  }
  // Placeholders give the graph its final shape up front: dense ids and the
  // same num_nodes()/num_edges() the one-shot run sees from batch 1 on.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    graph_->AddNodeWithLabelIds({});
  }
  for (uint64_t i = 0; i < num_edges; ++i) {
    graph_->AddEdgeWithLabelIds(0, 0, {});
  }
  node_filled_.assign(num_nodes, false);
  edge_filled_.assign(num_edges, false);
  sized_ = true;
  return util::Status::Ok();
}

util::Status GraphAssembler::ApplyVocab(const std::string& line) {
  // "V L <name>" / "V K <name>"; the name is the rest of the line, unescaped,
  // so label names with spaces survive.
  if (line.size() < 5 || line[1] != ' ' || line[3] != ' ' ||
      (line[2] != 'L' && line[2] != 'K')) {
    return util::Status::ParseError("bad vocab line '" + line + "'");
  }
  const std::string name = pg::UnescapeField(line.substr(4));
  if (line[2] == 'L') {
    graph_->vocab().InternLabel(name);
  } else {
    graph_->vocab().InternKey(name);
  }
  return util::Status::Ok();
}

util::Status GraphAssembler::MaterializeNode(const std::string& line,
                                             bool member,
                                             pg::GraphBatch* batch) {
  if (!sized_) {
    return util::Status::FailedPrecondition(
        "node record before the G header");
  }
  // R lines share the node-line shape; normalize the tag for the parser.
  std::string node_line = line;
  node_line[0] = 'N';
  auto parsed = pg::ParseElementLine(node_line);
  if (!parsed.ok()) return parsed.status();
  const pg::ElementRecord& record = *parsed;
  if (record.id >= node_filled_.size()) {
    return util::Status::OutOfRange("node id " + std::to_string(record.id) +
                                    " outside the declared graph");
  }
  if (node_filled_[record.id]) {
    return util::Status::FailedPrecondition(
        "node " + std::to_string(record.id) + " materialized twice");
  }
  std::vector<pg::LabelId> labels;
  labels.reserve(record.labels.size());
  for (const std::string& name : record.labels) {
    labels.push_back(graph_->vocab().InternLabel(name));
  }
  pg::NormalizeLabels(&labels);
  graph_->node(record.id).labels = std::move(labels);
  for (const auto& [key, value] : record.properties) {
    graph_->SetNodeProperty(record.id, key, value);
  }
  node_filled_[record.id] = true;
  ++nodes_filled_;
  if (member) batch->node_ids.push_back(record.id);
  return util::Status::Ok();
}

util::Status GraphAssembler::MaterializeEdge(const std::string& line,
                                             pg::GraphBatch* batch) {
  if (!sized_) {
    return util::Status::FailedPrecondition(
        "edge record before the G header");
  }
  auto parsed = pg::ParseElementLine(line);
  if (!parsed.ok()) return parsed.status();
  const pg::ElementRecord& record = *parsed;
  if (record.id >= edge_filled_.size()) {
    return util::Status::OutOfRange("edge id " + std::to_string(record.id) +
                                    " outside the declared graph");
  }
  if (edge_filled_[record.id]) {
    return util::Status::FailedPrecondition(
        "edge " + std::to_string(record.id) + " materialized twice");
  }
  if (record.src >= node_filled_.size() || record.dst >= node_filled_.size()) {
    return util::Status::OutOfRange("edge endpoint outside the graph");
  }
  if (!node_filled_[record.src] || !node_filled_[record.dst]) {
    // Discovery embeds endpoint labels when it processes the edge, so an
    // unmaterialized endpoint would silently change the schema. The client
    // always sends R records first; reaching this means a broken client.
    return util::Status::FailedPrecondition(
        "edge " + std::to_string(record.id) +
        " references an unmaterialized endpoint");
  }
  std::vector<pg::LabelId> labels;
  labels.reserve(record.labels.size());
  for (const std::string& name : record.labels) {
    labels.push_back(graph_->vocab().InternLabel(name));
  }
  pg::NormalizeLabels(&labels);
  pg::Edge& edge = graph_->edge(record.id);
  edge.src = record.src;
  edge.dst = record.dst;
  edge.labels = std::move(labels);
  for (const auto& [key, value] : record.properties) {
    graph_->SetEdgeProperty(record.id, key, value);
  }
  edge_filled_[record.id] = true;
  ++edges_filled_;
  batch->edge_ids.push_back(record.id);
  return util::Status::Ok();
}

std::string GraphAssembler::AssembledPayload() const {
  if (!sized_) return std::string();
  std::string out = "G " + std::to_string(node_filled_.size()) + ' ' +
                    std::to_string(edge_filled_.size()) + '\n';
  for (size_t id = 0; id < node_filled_.size(); ++id) {
    if (!node_filled_[id]) continue;
    std::string line = pg::FormatNodeLine(*graph_, graph_->node(id));
    line[0] = 'R';
    out += line;
    out += '\n';
  }
  for (size_t id = 0; id < edge_filled_.size(); ++id) {
    if (!edge_filled_[id]) continue;
    out += pg::FormatEdgeLine(*graph_, graph_->edge(id));
    out += '\n';
  }
  return out;
}

void GraphAssembler::AppendStateTo(std::string* out) const {
  util::PutU8(out, sized_ ? 1 : 0);
  PutBitmap(out, node_filled_);
  PutBitmap(out, edge_filled_);
}

util::Status GraphAssembler::RestoreState(std::string_view bytes) {
  util::ByteReader in(bytes);
  uint8_t sized = in.ReadU8();
  std::vector<bool> node_filled;
  std::vector<bool> edge_filled;
  if (sized > 1 || !ReadBitmap(&in, &node_filled) ||
      !ReadBitmap(&in, &edge_filled) || !in.ok() || !in.AtEnd()) {
    return util::Status::ParseError(
        "assembler snapshot: truncated or corrupt");
  }
  if (node_filled.size() != graph_->num_nodes() ||
      edge_filled.size() != graph_->num_edges()) {
    return util::Status::FailedPrecondition(
        "assembler snapshot does not match the replayed graph (" +
        std::to_string(node_filled.size()) + "/" +
        std::to_string(edge_filled.size()) + " vs " +
        std::to_string(graph_->num_nodes()) + "/" +
        std::to_string(graph_->num_edges()) + " elements)");
  }
  sized_ = sized != 0;
  node_filled_ = std::move(node_filled);
  edge_filled_ = std::move(edge_filled);
  nodes_filled_ = 0;
  for (bool b : node_filled_) nodes_filled_ += b ? 1 : 0;
  edges_filled_ = 0;
  for (bool b : edge_filled_) edges_filled_ += b ? 1 : 0;
  return util::Status::Ok();
}

util::Status GraphAssembler::CheckComplete() const {
  if (!sized_) {
    return util::Status::FailedPrecondition("no batches were ingested");
  }
  if (nodes_filled_ != node_filled_.size() ||
      edges_filled_ != edge_filled_.size()) {
    return util::Status::FailedPrecondition(
        "stream ended with unmaterialized elements: " +
        std::to_string(node_filled_.size() - nodes_filled_) + " nodes, " +
        std::to_string(edge_filled_.size() - edges_filled_) + " edges");
  }
  return util::Status::Ok();
}

}  // namespace pghive::service
