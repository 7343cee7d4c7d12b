#include "core/serialize.h"

#include <cctype>
#include <sstream>

#include "util/binio.h"

namespace pghive::core {

namespace {

std::string SanitizeIdentifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) return "T";
  return out;
}

// One type's PG-Schema spec, shared by node and edge types:
// "[ABSTRACT ]<name><suffix>[ : <label> & ...][ {<properties>}]".
void WriteTypeSpec(std::ostream& out, const pg::Vocabulary& vocab,
                   const ElementType& t, size_t index, const char* suffix,
                   SchemaMode mode) {
  if (t.is_abstract()) out << "ABSTRACT ";
  out << SanitizeIdentifier(t.Name(vocab, index)) << suffix;
  for (size_t i = 0; i < t.labels.size(); ++i) {
    out << (i == 0 ? " : " : " & ") << vocab.LabelName(t.labels[i]);
  }
  if (t.properties.empty()) return;
  out << " {";
  bool first = true;
  for (const auto& [key, info] : t.properties) {
    if (!first) out << ", ";
    first = false;
    if (mode == SchemaMode::kStrict &&
        info.requiredness == Requiredness::kOptional) {
      out << "OPTIONAL ";
    }
    out << vocab.KeyName(key);
    if (mode == SchemaMode::kStrict) {
      out << ' '
          << pg::DataTypeName(info.data_type == pg::DataType::kNull
                                  ? pg::DataType::kString
                                  : info.data_type);
    }
  }
  if (mode == SchemaMode::kLoose) out << ", OPEN";
  out << "}";
}

// The property list of one DescribeSchema line, ending the line.
void WriteDescribedProperties(std::ostream& out, const pg::Vocabulary& vocab,
                              const ElementType& t) {
  for (const auto& [key, info] : t.properties) {
    out << ' ' << vocab.KeyName(key) << ':'
        << pg::DataTypeName(info.data_type)
        << (info.requiredness == Requiredness::kMandatory ? "!" : "?");
  }
  out << '\n';
}

}  // namespace

std::string SerializePgSchema(const SchemaGraph& schema,
                              const pg::Vocabulary& vocab, SchemaMode mode) {
  std::ostringstream out;
  out << "CREATE GRAPH TYPE PgHiveSchema "
      << (mode == SchemaMode::kStrict ? "STRICT" : "LOOSE") << " {\n";
  bool first = true;
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    if (!first) out << ",\n";
    first = false;
    out << "  (";
    WriteTypeSpec(out, vocab, schema.node_types()[i], i, "Type", mode);
    out << ")";
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    if (!first) out << ",\n";
    first = false;
    // Endpoint spec: the union of source/target tokens observed.
    auto token_list = [&](bool src_side) {
      std::string spec;
      std::set<uint32_t> tokens;
      for (const auto& [s, d] : t.endpoints) {
        uint32_t tok = src_side ? s : d;
        if (tok != pg::kNoToken) tokens.insert(tok);
      }
      bool f = true;
      for (uint32_t tok : tokens) {
        if (!f) spec += " | ";
        f = false;
        spec += SanitizeIdentifier(vocab.TokenName(tok)) + "Type";
      }
      if (spec.empty()) spec = "ANY";
      return spec;
    };
    out << "  (:" << token_list(true) << ")-[";
    WriteTypeSpec(out, vocab, t, i, "EdgeType", mode);
    out << "]->(:" << token_list(false) << ")";
    if (mode == SchemaMode::kStrict &&
        t.cardinality.kind != CardinalityKind::kUnknown) {
      out << " /* " << CardinalityKindName(t.cardinality.kind) << " */";
    }
  }
  out << "\n}\n";
  return out.str();
}

const char* XsdTypeName(pg::DataType t) {
  switch (t) {
    case pg::DataType::kInteger:
      return "xs:long";
    case pg::DataType::kFloat:
      return "xs:double";
    case pg::DataType::kBoolean:
      return "xs:boolean";
    case pg::DataType::kDate:
      return "xs:date";
    case pg::DataType::kDateTime:
      return "xs:dateTime";
    case pg::DataType::kNull:
    case pg::DataType::kString:
      return "xs:string";
  }
  return "xs:string";
}

std::string SerializeXsd(const SchemaGraph& schema,
                         const pg::Vocabulary& vocab) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";
  auto emit_properties = [&](const std::map<pg::PropKeyId, PropertyInfo>& props) {
    for (const auto& [key, info] : props) {
      out << "      <xs:attribute name=\""
          << SanitizeIdentifier(vocab.KeyName(key)) << "\" type=\""
          << XsdTypeName(info.data_type) << "\" use=\""
          << (info.requiredness == Requiredness::kMandatory ? "required"
                                                            : "optional")
          << "\"/>\n";
    }
  };
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    const NodeType& t = schema.node_types()[i];
    out << "  <xs:element name=\"" << SanitizeIdentifier(t.Name(vocab, i))
        << "\">\n    <xs:complexType>\n";
    emit_properties(t.properties);
    out << "    </xs:complexType>\n  </xs:element>\n";
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    out << "  <xs:element name=\"" << SanitizeIdentifier(t.Name(vocab, i))
        << "_edge\">\n    <xs:complexType>\n";
    emit_properties(t.properties);
    out << "      <xs:attribute name=\"source\" type=\"xs:IDREF\" "
           "use=\"required\"/>\n"
        << "      <xs:attribute name=\"target\" type=\"xs:IDREF\" "
           "use=\"required\"/>\n";
    if (t.cardinality.kind != CardinalityKind::kUnknown) {
      out << "      <!-- cardinality: "
          << CardinalityKindName(t.cardinality.kind) << " -->\n";
    }
    out << "    </xs:complexType>\n  </xs:element>\n";
  }
  out << "</xs:schema>\n";
  return out.str();
}

std::string DescribeSchema(const SchemaGraph& schema,
                           const pg::Vocabulary& vocab) {
  std::ostringstream out;
  out << "Schema: " << schema.num_node_types() << " node types, "
      << schema.num_edge_types() << " edge types\n";
  for (size_t i = 0; i < schema.node_types().size(); ++i) {
    const NodeType& t = schema.node_types()[i];
    out << "  node " << t.Name(vocab, i) << " [" << t.instance_count
        << " instances, " << t.pattern_hashes.size() << " patterns]";
    WriteDescribedProperties(out, vocab, t);
  }
  for (size_t i = 0; i < schema.edge_types().size(); ++i) {
    const EdgeType& t = schema.edge_types()[i];
    out << "  edge " << t.Name(vocab, i) << " [" << t.instance_count
        << " instances, " << CardinalityKindName(t.cardinality.kind) << "]";
    WriteDescribedProperties(out, vocab, t);
  }
  return out.str();
}

namespace {

// --- Binary schema snapshot ------------------------------------------------
//
// Everything is little-endian and length-prefixed (util/binio framing);
// there are no implicit sizes, so a reader can validate the payload before
// building any structure.

constexpr char kBinaryMagic[4] = {'P', 'G', 'H', 'B'};
constexpr uint32_t kBinaryVersion = 1;

using util::ByteReader;
using util::PutU32;
using util::PutU32Vector;
using util::PutU64;
using util::PutU64Set;
using util::PutU64Vector;
using util::PutU8;

void PutProperties(std::string* out,
                   const std::map<pg::PropKeyId, PropertyInfo>& props) {
  PutU64(out, props.size());
  for (const auto& [key, info] : props) {
    PutU32(out, key);
    PutU64(out, info.count);
    PutU8(out, static_cast<uint8_t>(info.data_type));
    PutU8(out, info.requiredness == Requiredness::kMandatory ? 1 : 0);
  }
}

bool ReadProperties(ByteReader* in,
                    std::map<pg::PropKeyId, PropertyInfo>* props) {
  uint64_t n = in->ReadU64();
  if (!in->SaneCount(n, 14)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    pg::PropKeyId key = in->ReadU32();
    PropertyInfo info;
    info.count = in->ReadU64();
    uint8_t type = in->ReadU8();
    if (type > static_cast<uint8_t>(pg::DataType::kString)) {
      in->Fail();
      return false;
    }
    info.data_type = static_cast<pg::DataType>(type);
    info.requiredness =
        in->ReadU8() != 0 ? Requiredness::kMandatory : Requiredness::kOptional;
    (*props)[key] = info;
  }
  return in->ok();
}

// The fields of ElementType, in the order node and edge records share.
void PutTypeFields(std::string* out, const ElementType& t) {
  PutU32Vector(out, t.labels);
  PutProperties(out, t.properties);
  PutU64Vector(out, t.instances);
  PutU64(out, t.instance_count);
  PutU64Set(out, t.pattern_hashes);
}

// Each field stops the parse immediately on a bad length prefix, so a
// corrupt early field can never let a later untrusted count through.
bool ReadTypeFields(ByteReader* in, ElementType* t) {
  if (!in->ReadU32Vector(&t->labels) || !ReadProperties(in, &t->properties) ||
      !in->ReadU64Vector(&t->instances)) {
    return false;
  }
  t->instance_count = in->ReadU64();
  return in->ReadU64Set(&t->pattern_hashes);
}

}  // namespace

std::string SerializeSchemaBinary(const SchemaGraph& schema) {
  std::string out;
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  PutU32(&out, kBinaryVersion);
  PutU64(&out, schema.num_node_types());
  PutU64(&out, schema.num_edge_types());
  for (const NodeType& t : schema.node_types()) PutTypeFields(&out, t);
  for (const EdgeType& t : schema.edge_types()) {
    PutTypeFields(&out, t);
    PutU64(&out, t.endpoints.size());
    for (const auto& [src, dst] : t.endpoints) {
      PutU32(&out, src);
      PutU32(&out, dst);
    }
    PutU64(&out, t.cardinality.max_out);
    PutU64(&out, t.cardinality.max_in);
    PutU8(&out, static_cast<uint8_t>(t.cardinality.kind));
  }
  return out;
}

util::StatusOr<SchemaGraph> ParseSchemaBinary(const std::string& bytes) {
  ByteReader in(bytes);
  if (!in.Has(sizeof(kBinaryMagic)) ||
      bytes.compare(0, sizeof(kBinaryMagic), kBinaryMagic,
                    sizeof(kBinaryMagic)) != 0) {
    return util::Status::ParseError("schema binary: bad magic");
  }
  in.ReadBytes(sizeof(kBinaryMagic));
  uint32_t version = in.ReadU32();
  if (version != kBinaryVersion) {
    return util::Status::ParseError("schema binary: unsupported version " +
                                    std::to_string(version));
  }
  uint64_t num_node_types = in.ReadU64();
  uint64_t num_edge_types = in.ReadU64();
  SchemaGraph schema;
  for (uint64_t i = 0; i < num_node_types && in.ok(); ++i) {
    NodeType t;
    if (!ReadTypeFields(&in, &t)) break;
    schema.node_types().push_back(std::move(t));
  }
  for (uint64_t i = 0; i < num_edge_types && in.ok(); ++i) {
    EdgeType t;
    if (!ReadTypeFields(&in, &t)) break;
    uint64_t num_endpoints = in.ReadU64();
    if (!in.SaneCount(num_endpoints, 8)) break;
    for (uint64_t e = 0; e < num_endpoints && in.ok(); ++e) {
      uint32_t src = in.ReadU32();
      uint32_t dst = in.ReadU32();
      t.endpoints.emplace(src, dst);
    }
    t.cardinality.max_out = in.ReadU64();
    t.cardinality.max_in = in.ReadU64();
    uint8_t kind = in.ReadU8();
    if (kind > static_cast<uint8_t>(CardinalityKind::kManyToMany)) {
      return util::Status::ParseError("schema binary: bad cardinality kind");
    }
    t.cardinality.kind = static_cast<CardinalityKind>(kind);
    if (!in.ok()) break;
    schema.edge_types().push_back(std::move(t));
  }
  if (!in.ok() || schema.num_node_types() != num_node_types ||
      schema.num_edge_types() != num_edge_types || !in.AtEnd()) {
    return util::Status::ParseError(
        "schema binary: truncated or trailing payload");
  }
  return schema;
}

}  // namespace pghive::core
