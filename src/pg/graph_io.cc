#include "pg/graph_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace pghive::pg {

namespace {

// The field characters EscapeField prefixes with a '\\'.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> table{};
  for (unsigned char c : std::string_view("\\;=|\n \t\r\v\f")) table[c] = true;
  return table;
}();

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

void AppendEscaped(std::string_view s, std::string* out) {
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!kNeedsEscape[static_cast<unsigned char>(s[i])]) continue;
    out->append(s, start, i - start);
    out->push_back('\\');
    switch (s[i]) {
      case ';':
        out->push_back('s');
        break;
      case '=':
        out->push_back('e');
        break;
      case '\n':
        out->push_back('n');
        break;
      default:
        out->push_back(s[i]);
    }
    start = i + 1;
  }
  out->append(s, start, s.size() - start);
}

// Decodes `raw` into `scratch` when it holds an escape; otherwise returns
// `raw` itself, so the common field costs no copy.
std::string_view Unescaped(std::string_view raw, std::string* scratch) {
  if (raw.find('\\') == std::string_view::npos) return raw;
  scratch->clear();
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\' || i + 1 == raw.size()) {
      scratch->push_back(raw[i]);
      continue;
    }
    switch (raw[++i]) {
      case 's':
        scratch->push_back(';');
        break;
      case 'e':
        scratch->push_back('=');
        break;
      case 'n':
        scratch->push_back('\n');
        break;
      default:
        scratch->push_back(raw[i]);
    }
  }
  return *scratch;
}

// The position of the first `sep` in `s` at or after `from` that no '\\'
// escapes, or s.size().
size_t FindUnescaped(std::string_view s, char sep, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == sep) {
      return i;
    }
  }
  return s.size();
}

// Calls `fn` on each `sep`-separated piece of `s`, escapes respected.
template <typename Fn>
void ForEachPiece(std::string_view s, char sep, Fn fn) {
  size_t start = 0;
  while (true) {
    const size_t end = FindUnescaped(s, sep, start);
    fn(s.substr(start, end - start));
    if (end == s.size()) return;
    start = end + 1;
  }
}

// The next whitespace-delimited token of `line` from `*pos`; a '\\' also
// escapes whitespace. Empty at the end of the line.
std::string_view NextToken(std::string_view line, size_t* pos) {
  size_t i = *pos;
  while (i < line.size() && IsSpace(line[i])) ++i;
  const size_t start = i;
  while (i < line.size() && !IsSpace(line[i])) {
    i += (line[i] == '\\' && i + 1 < line.size()) ? 2 : 1;
  }
  *pos = i;
  return line.substr(start, i - start);
}

bool ParseU64(std::string_view token, uint64_t* out) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return !token.empty() && ec == std::errc() && ptr == end;
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[20];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, ptr);
}

// Value::ToString's rendering, appended: '%g' for floats.
void AppendValue(const Value& value, std::string* out) {
  char buf[64];
  if (value.is_string()) {
    AppendEscaped(value.AsString(), out);
  } else if (value.is_int()) {
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value.AsInt());
    out->append(buf, ptr);
  } else if (value.is_float()) {
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value.AsFloat(),
                                   std::chars_format::general, 6);
    out->append(buf, ptr);
  } else if (value.is_bool()) {
    out->append(value.AsBool() ? "true" : "false");
  } else {
    out->append("null");
  }
}

void AppendLabelField(const Vocabulary& vocab,
                      const std::vector<LabelId>& labels, std::string* out) {
  if (labels.empty()) {
    out->push_back('-');
    return;
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out->push_back('|');
    const std::string& name = vocab.LabelName(labels[i]);
    // A label spelled "-" must not read back as "no labels".
    if (name == "-") out->push_back('\\');
    AppendEscaped(name, out);
  }
}

void AppendPropsField(const Vocabulary& vocab, const PropertyMap& props,
                      std::string* out) {
  bool first = true;
  for (const auto& [key, value] : props.entries()) {
    if (!first) out->push_back(';');
    first = false;
    AppendEscaped(vocab.KeyName(key), out);
    out->push_back('=');
    AppendValue(value, out);
  }
}

// Appends every node line, then every edge line; calls `flush` after each
// so SaveGraphFile can stream the buffer out.
template <typename Flush>
void AppendGraphText(const PropertyGraph& graph, std::string* out,
                     Flush flush) {
  for (const Node& n : graph.nodes()) {
    AppendNodeLine(graph, n, 'N', out);
    out->push_back('\n');
    flush();
  }
  for (const Edge& e : graph.edges()) {
    AppendEdgeLine(graph, e, out);
    out->push_back('\n');
    flush();
  }
}

}  // namespace

std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string scratch;
  return std::string(Unescaped(s, &scratch));
}

util::StatusOr<ElementLine> SplitElementLine(std::string_view line,
                                             char node_tag) {
  size_t pos = 0;
  const std::string_view tag = NextToken(line, &pos);
  ElementLine fields;
  if (tag.size() != 1 || (tag[0] != node_tag && tag[0] != 'E')) {
    return util::Status::ParseError("unknown record '" + std::string(tag) +
                                    "'");
  }
  fields.is_edge = tag[0] == 'E';
  const char* what = fields.is_edge ? "bad edge line: " : "bad node line: ";
  bool ok = ParseU64(NextToken(line, &pos), &fields.id);
  if (fields.is_edge) {
    ok = ok && ParseU64(NextToken(line, &pos), &fields.src) &&
         ParseU64(NextToken(line, &pos), &fields.dst);
  }
  fields.labels = NextToken(line, &pos);
  if (!ok || fields.labels.empty()) {
    return util::Status::ParseError(what + std::string(line));
  }
  fields.props = NextToken(line, &pos);
  const std::string_view extra = NextToken(line, &pos);
  if (!extra.empty()) {
    return util::Status::ParseError(
        std::string(what) + "trailing token '" + std::string(extra) +
        "' after the props field: " + std::string(line));
  }
  return fields;
}

std::vector<LabelId> InternLabelField(std::string_view field,
                                      Vocabulary* vocab) {
  std::vector<LabelId> labels;
  if (field == "-") return labels;
  std::string scratch;
  ForEachPiece(field, '|', [&](std::string_view piece) {
    if (!piece.empty()) {
      labels.push_back(vocab->InternLabel(Unescaped(piece, &scratch)));
    }
  });
  return labels;
}

util::Status ApplyPropsField(std::string_view field, Vocabulary* vocab,
                             PropertyMap* props) {
  if (field.empty() || field == "-") return util::Status::Ok();
  // Escaped data holds no raw ';' but the separators.
  const auto pairs = std::count(field.begin(), field.end(), ';') + 1;
  props->Reserve(props->size() + static_cast<size_t>(pairs));
  std::string scratch;
  util::Status status = util::Status::Ok();
  ForEachPiece(field, ';', [&](std::string_view pair) {
    if (!status.ok()) return;
    const size_t eq = FindUnescaped(pair, '=', 0);
    if (eq == pair.size() || FindUnescaped(pair, '=', eq + 1) != pair.size()) {
      status = util::Status::ParseError(
          "bad props pair '" + std::string(pair) +
          "' (want key=value with one unescaped '=')");
      return;
    }
    const KeyId key = vocab->InternKey(Unescaped(pair.substr(0, eq), &scratch));
    props->Set(key,
               ParseValueLiteral(Unescaped(pair.substr(eq + 1), &scratch)));
  });
  return status;
}

void AppendNodeLine(const PropertyGraph& graph, const Node& node, char tag,
                    std::string* out) {
  out->push_back(tag);
  out->push_back(' ');
  AppendU64(node.id, out);
  out->push_back(' ');
  AppendLabelField(graph.vocab(), node.labels, out);
  out->push_back(' ');
  AppendPropsField(graph.vocab(), node.properties, out);
}

void AppendEdgeLine(const PropertyGraph& graph, const Edge& edge,
                    std::string* out) {
  out->append("E ");
  AppendU64(edge.id, out);
  out->push_back(' ');
  AppendU64(edge.src, out);
  out->push_back(' ');
  AppendU64(edge.dst, out);
  out->push_back(' ');
  AppendLabelField(graph.vocab(), edge.labels, out);
  out->push_back(' ');
  AppendPropsField(graph.vocab(), edge.properties, out);
}

std::string SaveGraphText(const PropertyGraph& graph) {
  std::string out;
  AppendGraphText(graph, &out, [] {});
  return out;
}

util::Status SaveGraphFile(const PropertyGraph& graph,
                           const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return util::Status::IoError("cannot open " + path);
  constexpr size_t kFlushBytes = size_t{1} << 20;
  std::string buffer;
  buffer.reserve(kFlushBytes + 4096);
  AppendGraphText(graph, &buffer, [&] {
    if (buffer.size() < kFlushBytes) return;
    file.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
  });
  file.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  file.close();
  if (!file) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

util::Status LoadGraphTextInto(std::string_view text, PropertyGraph* graph) {
  if (graph->num_nodes() != 0 || graph->num_edges() != 0) {
    return util::Status::FailedPrecondition(
        "LoadGraphTextInto needs a graph without nodes or edges");
  }
  // Size the element vectors up front from the line tags: no regrowth, and
  // no transient second copy of either vector.
  size_t node_lines = 0;
  size_t edge_lines = 0;
  for (size_t start = 0; start < text.size();) {
    node_lines += text[start] == 'N' ? 1 : 0;
    edge_lines += text[start] == 'E' ? 1 : 0;
    const size_t nl = text.find('\n', start);
    start = nl == std::string_view::npos ? text.size() : nl + 1;
  }
  graph->mutable_nodes().reserve(node_lines);
  graph->mutable_edges().reserve(edge_lines);

  Vocabulary& vocab = graph->vocab();
  size_t line_no = 0;
  for (size_t start = 0; start < text.size();) {
    const size_t nl = std::min(text.find('\n', start), text.size());
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    auto where = [line_no] { return ", line " + std::to_string(line_no); };
    auto split = SplitElementLine(line);
    if (!split.ok()) {
      return util::Status::ParseError(split.status().message() + where());
    }
    const ElementLine& fields = *split;
    if (!fields.is_edge) {
      if (fields.id != graph->num_nodes()) {
        return util::Status::ParseError("node ids must be dense" + where());
      }
      const NodeId nid =
          graph->AddNodeWithLabelIds(InternLabelField(fields.labels, &vocab));
      util::Status props =
          ApplyPropsField(fields.props, &vocab, &graph->node(nid).properties);
      if (!props.ok()) {
        return util::Status::ParseError(props.message() + where());
      }
    } else {
      if (fields.src >= graph->num_nodes() ||
          fields.dst >= graph->num_nodes()) {
        return util::Status::ParseError("edge endpoint out of range" +
                                        where());
      }
      if (fields.id != graph->num_edges()) {
        return util::Status::ParseError("edge ids must be dense" + where());
      }
      const EdgeId eid = graph->AddEdgeWithLabelIds(
          fields.src, fields.dst, InternLabelField(fields.labels, &vocab));
      util::Status props =
          ApplyPropsField(fields.props, &vocab, &graph->edge(eid).properties);
      if (!props.ok()) {
        return util::Status::ParseError(props.message() + where());
      }
    }
  }
  return util::Status::Ok();
}

util::StatusOr<PropertyGraph> LoadGraphText(const std::string& text) {
  PropertyGraph graph;
  util::Status status = LoadGraphTextInto(text, &graph);
  if (!status.ok()) return status;
  return graph;
}

util::StatusOr<PropertyGraph> LoadGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open " + path);
  std::string text;
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (!error) {
    // A regular file: one sized read, no intermediate copy.
    text.resize(size);
    in.read(text.data(), static_cast<std::streamsize>(size));
    if (static_cast<uintmax_t>(in.gcount()) != size) {
      return util::Status::IoError("read failed: " + path);
    }
  } else {
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return LoadGraphText(text);
}

}  // namespace pghive::pg
