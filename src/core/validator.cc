#include "core/validator.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace pghive::core {

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnknownNodeType:
      return "UNKNOWN_NODE_TYPE";
    case ViolationKind::kUnknownEdgeType:
      return "UNKNOWN_EDGE_TYPE";
    case ViolationKind::kMissingMandatory:
      return "MISSING_MANDATORY";
    case ViolationKind::kUndeclaredProperty:
      return "UNDECLARED_PROPERTY";
    case ViolationKind::kDataTypeMismatch:
      return "DATATYPE_MISMATCH";
    case ViolationKind::kEndpointMismatch:
      return "ENDPOINT_MISMATCH";
    case ViolationKind::kCardinalityExceeded:
      return "CARDINALITY_EXCEEDED";
  }
  return "?";
}

size_t ValidationReport::CountKind(ViolationKind kind) const {
  size_t count = 0;
  for (const Violation& v : violations) count += v.kind == kind;
  return count;
}

std::string ValidationReport::Summary() const {
  std::ostringstream out;
  out << "checked " << nodes_checked << " nodes, " << edges_checked
      << " edges: ";
  if (conforms()) {
    out << "CONFORMS";
  } else {
    out << violations.size() << " violations";
    for (int k = 0; k <= static_cast<int>(ViolationKind::kCardinalityExceeded);
         ++k) {
      size_t c = CountKind(static_cast<ViolationKind>(k));
      if (c > 0) {
        out << ", " << ViolationKindName(static_cast<ViolationKind>(k)) << "="
            << c;
      }
    }
  }
  return out.str();
}

namespace {

// Whether a value is compatible with a declared type: the value's inferred
// type joined with the declared type must not generalize past it.
bool ValueCompatible(const pg::Value& value, pg::DataType declared) {
  if (declared == pg::DataType::kString || declared == pg::DataType::kNull) {
    return true;  // Everything renders as a string.
  }
  pg::DataType observed = value.InferType();
  if (observed == pg::DataType::kNull) return true;
  return pg::JoinDataTypes(observed, declared) == declared;
}

// One kind's types, indexed for matching: by exact label set, plus the
// labeled and the ABSTRACT types in schema order.
template <typename TypeT>
class TypeIndex {
 public:
  explicit TypeIndex(const std::vector<TypeT>& types) {
    for (const TypeT& t : types) {
      if (t.is_abstract()) {
        abstract_.push_back(&t);
      } else {
        by_labels_[LabelSetKey(t.labels)] = &t;
        labeled_.push_back(&t);
      }
    }
  }

  // The types a labeled element may conform to: the one with its exact label
  // set first, then, in LOOSE mode, every other type whose label set is a
  // superset of the element's (union-labeled types emerge when the LSH pass
  // groups structurally identical elements of several labels, §4.3). None
  // for an unlabeled element, which can only match an ABSTRACT type.
  std::vector<const TypeT*> Candidates(const std::vector<pg::LabelId>& labels,
                                       bool strict) const {
    std::vector<const TypeT*> candidates;
    if (labels.empty()) return candidates;
    auto it = by_labels_.find(LabelSetKey(labels));
    if (it != by_labels_.end()) candidates.push_back(it->second);
    if (strict) return candidates;
    const TypeT* exact = candidates.empty() ? nullptr : candidates[0];
    for (const TypeT* t : labeled_) {
      if (t != exact && std::includes(t->labels.begin(), t->labels.end(),
                                      labels.begin(), labels.end())) {
        candidates.push_back(t);
      }
    }
    return candidates;
  }

  // Whether an ABSTRACT type declares every key an unlabeled element carries.
  bool MatchesAbstract(const pg::PropertyMap& props) const {
    for (const TypeT* t : abstract_) {
      bool covered = true;
      for (const auto& [key, value] : props.entries()) {
        if (!t->properties.count(key)) {
          covered = false;
          break;
        }
      }
      if (covered) return true;
    }
    return false;
  }

 private:
  std::unordered_map<uint64_t, const TypeT*> by_labels_;
  std::vector<const TypeT*> labeled_;
  std::vector<const TypeT*> abstract_;
};

}  // namespace

SchemaValidator::SchemaValidator(const SchemaGraph* schema,
                                 ValidatorOptions options)
    : schema_(schema), options_(options) {}

ValidationReport SchemaValidator::Validate(
    const pg::PropertyGraph& graph) const {
  ValidationReport report;
  const bool strict = options_.mode == SchemaMode::kStrict;
  pg::Vocabulary& vocab = const_cast<pg::PropertyGraph&>(graph).vocab();

  auto full = [&]() {
    return options_.max_violations > 0 &&
           report.violations.size() >= options_.max_violations;
  };
  auto add = [&](ViolationKind kind, bool is_edge, uint64_t id,
                 std::string detail) {
    if (full()) return;
    report.violations.push_back({kind, is_edge, id, std::move(detail)});
  };

  const TypeIndex<NodeType> node_index(schema_->node_types());
  const TypeIndex<EdgeType> edge_index(schema_->edge_types());

  // Property checks for a candidate type, collected into `out` so callers
  // can compare candidates and keep the cleanest match.
  auto property_violations = [&](const auto& type,
                                 const pg::PropertyMap& props, bool is_edge,
                                 uint64_t id, std::vector<Violation>* out) {
    for (const auto& [key, info] : type.properties) {
      if (info.requiredness == Requiredness::kMandatory && !props.Has(key)) {
        out->push_back({ViolationKind::kMissingMandatory, is_edge, id,
                        "missing mandatory property '" + vocab.KeyName(key) +
                            "'"});
      }
    }
    if (!strict) return;
    for (const auto& [key, value] : props.entries()) {
      auto it = type.properties.find(key);
      if (it == type.properties.end()) {
        out->push_back({ViolationKind::kUndeclaredProperty, is_edge, id,
                        "property '" + vocab.KeyName(key) +
                            "' not declared"});
        continue;
      }
      if (!ValueCompatible(value, it->second.data_type)) {
        out->push_back({ViolationKind::kDataTypeMismatch, is_edge, id,
                        "property '" + vocab.KeyName(key) + "' value '" +
                            value.ToString() + "' incompatible with " +
                            pg::DataTypeName(it->second.data_type)});
      }
    }
  };

  // Checks an element against all candidate types; conforms if any candidate
  // is violation-free, otherwise reports the cleanest candidate's issues.
  auto check_candidates = [&](const auto& candidates,
                              const pg::PropertyMap& props, bool is_edge,
                              uint64_t id) {
    std::vector<Violation> best;
    bool first = true;
    for (const auto* type : candidates) {
      std::vector<Violation> current;
      property_violations(*type, props, is_edge, id, &current);
      if (current.empty()) return;  // Clean match.
      if (first || current.size() < best.size()) best = std::move(current);
      first = false;
    }
    for (Violation& v : best) {
      if (full()) return;
      report.violations.push_back(std::move(v));
    }
  };

  // Matches one element against its kind's types and reports what does not
  // conform; returns the candidate types (see TypeIndex::Candidates). An
  // unlabeled element passes LOOSE mode; in STRICT mode it must match an
  // ABSTRACT type.
  auto check_element = [&](const auto& index,
                           const std::vector<pg::LabelId>& labels,
                           const pg::PropertyMap& props, bool is_edge,
                           uint64_t id) {
    const ViolationKind unknown = is_edge ? ViolationKind::kUnknownEdgeType
                                          : ViolationKind::kUnknownNodeType;
    auto candidates = index.Candidates(labels, strict);
    if (labels.empty()) {
      if (strict && !index.MatchesAbstract(props)) {
        add(unknown, is_edge, id,
            std::string("unlabeled ") + (is_edge ? "edge" : "node") +
                " matches no ABSTRACT type");
      }
    } else if (candidates.empty()) {
      add(unknown, is_edge, id, "no type with this label set");
    } else {
      check_candidates(candidates, props, is_edge, id);
    }
    return candidates;
  };

  // --- Nodes ---
  for (const pg::Node& node : graph.nodes()) {
    if (full()) break;
    ++report.nodes_checked;
    check_element(node_index, node.labels, node.properties, false, node.id);
  }

  // --- Edges ---
  std::unordered_map<const EdgeType*,
                     std::unordered_map<pg::NodeId, std::unordered_set<pg::NodeId>>>
      out_targets;
  std::unordered_map<const EdgeType*,
                     std::unordered_map<pg::NodeId, std::unordered_set<pg::NodeId>>>
      in_sources;
  for (const pg::Edge& edge : graph.edges()) {
    if (full()) break;
    ++report.edges_checked;
    std::vector<const EdgeType*> candidates = check_element(
        edge_index, edge.labels, edge.properties, true, edge.id);
    if (candidates.empty()) continue;
    const EdgeType* type = candidates[0];
    if (strict) {
      // Endpoint check: the (src token, dst token) pair must be declared.
      uint32_t src_token =
          vocab.TokenForLabelSet(graph.node(edge.src).labels);
      uint32_t dst_token =
          vocab.TokenForLabelSet(graph.node(edge.dst).labels);
      if (!type->endpoints.empty() &&
          type->endpoints.count({src_token, dst_token}) == 0) {
        add(ViolationKind::kEndpointMismatch, true, edge.id,
            "endpoint pair not declared for this edge type");
      }
      out_targets[type][edge.src].insert(edge.dst);
      in_sources[type][edge.dst].insert(edge.src);
    }
  }

  // Cardinality bounds (STRICT): observed degrees must not exceed the
  // schema's recorded upper bounds.
  if (strict) {
    for (const auto& [type, per_src] : out_targets) {
      if (type->cardinality.kind == CardinalityKind::kUnknown) continue;
      for (const auto& [src, targets] : per_src) {
        if (targets.size() > type->cardinality.max_out) {
          add(ViolationKind::kCardinalityExceeded, true, 0,
              "source " + std::to_string(src) + " exceeds max_out " +
                  std::to_string(type->cardinality.max_out));
        }
      }
    }
    for (const auto& [type, per_dst] : in_sources) {
      if (type->cardinality.kind == CardinalityKind::kUnknown) continue;
      for (const auto& [dst, sources] : per_dst) {
        if (sources.size() > type->cardinality.max_in) {
          add(ViolationKind::kCardinalityExceeded, true, 0,
              "target " + std::to_string(dst) + " exceeds max_in " +
                  std::to_string(type->cardinality.max_in));
        }
      }
    }
  }

  return report;
}

}  // namespace pghive::core
