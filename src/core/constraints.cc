#include "core/constraints.h"

namespace pghive::core {

namespace {

void InferForType(ElementType* type) {
  for (auto& [key, info] : type->properties) {
    info.requiredness = (type->instance_count > 0 &&
                         info.count == type->instance_count)
                            ? Requiredness::kMandatory
                            : Requiredness::kOptional;
  }
}

}  // namespace

void InferPropertyConstraints(SchemaGraph* schema) {
  for (auto& t : schema->node_types()) InferForType(&t);
  for (auto& t : schema->edge_types()) InferForType(&t);
}

double PropertyFrequency(const ElementType& type, pg::PropKeyId key) {
  if (type.instance_count == 0) return 0.0;
  auto it = type.properties.find(key);
  if (it == type.properties.end()) return 0.0;
  return static_cast<double>(it->second.count) /
         static_cast<double>(type.instance_count);
}

}  // namespace pghive::core
