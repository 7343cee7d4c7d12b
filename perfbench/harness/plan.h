// The default PgHive plan (columnar, unsharded, Word2Vec embedder) rebuilt
// from the layers' public calls, in PgHive's order, so the traced run can put
// a span around every step. Its schema must equal PgHive's byte for byte;
// the workloads check that on every run.
#ifndef PERFBENCH_HARNESS_PLAN_H_
#define PERFBENCH_HARNESS_PLAN_H_

#include <cstddef>

#include "core/pghive.h"
#include "core/schema.h"
#include "embed/word2vec.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

/// What the plan measured while it ran, for the run record and the
/// per-layer metrics.
struct PlanStats {
  size_t node_clusters = 0;  ///< Summed over batches.
  size_t edge_clusters = 0;
  size_t mu_fallbacks = 0;   ///< Adaptive choices whose mu was the 1.0
                             ///< fallback of EstimateDistanceScale.
  pghive::core::AdaptiveChoice node_params;  ///< Of the last batch.
  pghive::core::AdaptiveChoice edge_params;
  double train_cpu_ms = 0;
  double vectorize_cpu_ms = 0;
};

class TracedPlan {
 public:
  /// `options` must describe the default plan (columnar, one shard,
  /// Word2Vec, adaptive parameters); its other discovery knobs are applied
  /// exactly as PgHive applies them.
  TracedPlan(pghive::pg::PropertyGraph* graph,
             const pghive::core::PgHiveOptions& options,
             pghive::util::ThreadPool* pool, Tracer* tracer);

  /// PgHive::ProcessBatch, step by step.
  void ProcessBatch(const pghive::pg::GraphBatch& batch);
  /// PgHive::Finish: constraints, data types, cardinalities.
  void Finish();

  const pghive::core::SchemaGraph& schema() const { return schema_; }
  const PlanStats& stats() const { return stats_; }
  /// Embedding rows whose normalized vector has a NaN or infinite entry.
  size_t NonFiniteRows() const;
  size_t VocabRows() const { return word2vec_.num_rows(); }

 private:
  pghive::pg::PropertyGraph* graph_;
  pghive::core::PgHiveOptions options_;
  pghive::util::ThreadPool* pool_;
  Tracer* tracer_;
  pghive::embed::Word2Vec word2vec_;
  pghive::core::SchemaGraph schema_;
  PlanStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PLAN_H_
