#include "plan.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/cardinality.h"
#include "core/constraints.h"
#include "core/datatype_inference.h"
#include "core/type_extraction.h"
#include "core/vectorizer.h"
#include "embed/corpus.h"
#include "lsh/clustering.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"

namespace perfbench {

namespace {

using namespace pghive;

embed::Word2VecOptions EmbedOptions(const core::PgHiveOptions& options) {
  embed::Word2VecOptions w2v;
  w2v.dim = options.embedding_dim;
  w2v.seed = options.seed;
  return w2v;
}

/// CPU time (ms, all threads) of `fn`.
template <typename Fn>
double CpuMs(Fn&& fn) {
  const double before = SelfCpuSeconds();
  fn();
  return (SelfCpuSeconds() - before) * 1e3;
}

/// One clustering track (nodes or edges) exactly as PgHive's ClusterNodes /
/// ClusterEdges run it, with the same per-side seed constants.
lsh::ClusterSet ClusterTrack(bool nodes, const core::PgHiveOptions& options,
                             size_t num_labels, const pg::GraphBatch& batch,
                             const core::FeatureMatrix& features,
                             core::Vectorizer* vectorizer,
                             util::ThreadPool* pool, Tracer* tracer,
                             core::AdaptiveChoice* choice_out) {
  const std::string side = nodes ? "node" : "edge";
  const bool elsh = options.method == core::ClusterMethod::kElsh;
  core::AdaptiveOptions aopts;
  aopts.seed = options.seed ^ (nodes ? (elsh ? 0x11 : 0x12) : (elsh ? 0x21 : 0x22));
  core::AdaptiveChoice choice;
  {
    ScopedSpan span(tracer, "core.adaptive");
    choice = nodes ? core::ChooseNodeParams(features, num_labels, aopts)
                   : core::ChooseEdgeParams(features, num_labels, aopts);
  }
  if (elsh) choice.bucket_length *= options.alpha_scale;
  *choice_out = choice;

  std::vector<uint64_t> sigs;
  if (elsh) {
    lsh::EuclideanLshParams params;
    params.bucket_length = std::max(1e-6, choice.bucket_length);
    params.num_tables = std::max<size_t>(1, choice.num_tables);
    params.seed = options.seed ^ (nodes ? 0xE15 : 0xE25);
    params.amplification = options.amplification;
    lsh::EuclideanLsh hasher(features.dim, params);
    {
      ScopedSpan span(tracer, "lsh." + side + "_hash");
      sigs = hasher.HashAll(features.data, features.num, pool);
    }
    ScopedSpan span(tracer, "lsh." + side + "_group");
    return params.amplification == lsh::Amplification::kAnd
               ? lsh::ClusterBySignature(sigs, features.num,
                                         params.num_tables, pool)
               : lsh::ClusterByAnyCollision(sigs, features.num,
                                            params.num_tables, pool);
  }
  lsh::MinHashParams params;
  params.num_hashes = std::max<size_t>(4, choice.num_tables);
  params.rows_per_band =
      std::min(options.minhash_rows_per_band, params.num_hashes);
  params.seed = options.seed ^ (nodes ? 0x517 : 0x527);
  params.amplification = options.amplification;
  lsh::MinHashLsh hasher(params);
  size_t num = 0;
  {
    ScopedSpan span(tracer, "lsh." + side + "_hash");
    core::ElementSetCsr csr = nodes ? vectorizer->NodeSetSpans(batch)
                                    : vectorizer->EdgeSetSpans(batch);
    num = csr.num();
    sigs = hasher.SignatureAll(
        lsh::SetSpans{csr.elements.data(), csr.offsets.data(), csr.num()},
        pool);
  }
  ScopedSpan span(tracer, "lsh." + side + "_group");
  return hasher.ClusterFromSignatures(sigs, num, pool);
}

}  // namespace

TracedPlan::TracedPlan(pg::PropertyGraph* graph,
                       const core::PgHiveOptions& options,
                       util::ThreadPool* pool, Tracer* tracer)
    : graph_(graph),
      options_(options),
      pool_(pool),
      tracer_(tracer),
      word2vec_(&graph->vocab(), EmbedOptions(options)) {}

void TracedPlan::ProcessBatch(const pg::GraphBatch& batch) {
  // (b) Preprocess: column builds (the token-intern pre-pass, edges first),
  // corpus, incremental Word2Vec, feature matrices.
  core::Vectorizer vectorizer(graph_, &word2vec_, pool_, /*columnar=*/true);
  const pg::ColumnStore* edge_cols = nullptr;
  const pg::ColumnStore* node_cols = nullptr;
  {
    ScopedSpan span(tracer_, "core.column_build");
    edge_cols = &vectorizer.EdgeColumns(batch);
    node_cols = &vectorizer.NodeColumns(batch);
  }
  embed::LabelCorpus corpus;
  {
    ScopedSpan span(tracer_, "embed.corpus");
    corpus = embed::BuildLabelCorpus(*graph_, *edge_cols, *node_cols);
  }
  {
    ScopedSpan span(tracer_, "embed.train");
    stats_.train_cpu_ms += CpuMs([&] { word2vec_.Train(corpus, pool_); });
  }
  core::FeatureMatrix node_features;
  core::FeatureMatrix edge_features;
  {
    ScopedSpan span(tracer_, "core.vectorize");
    stats_.vectorize_cpu_ms += CpuMs([&] {
      node_features = vectorizer.NodeFeatures(batch);
      edge_features = vectorizer.EdgeFeatures(batch);
    });
  }

  // (c) Clustering and candidates; PgHive runs the two tracks concurrently,
  // the plan runs them one after the other so their spans do not overlap.
  const size_t num_labels = graph_->vocab().num_labels();
  std::vector<core::CandidateType> node_candidates;
  std::vector<core::CandidateType> edge_candidates;
  if (!batch.node_ids.empty()) {
    lsh::ClusterSet clusters =
        ClusterTrack(/*nodes=*/true, options_, num_labels, batch,
                     node_features, &vectorizer, pool_, tracer_,
                     &stats_.node_params);
    stats_.node_clusters += clusters.num_clusters();
    if (stats_.node_params.mu == 1.0) ++stats_.mu_fallbacks;
    ScopedSpan span(tracer_, "core.candidates");
    node_candidates = core::BuildNodeCandidates(*graph_, batch, clusters);
  }
  if (!batch.edge_ids.empty()) {
    lsh::ClusterSet clusters =
        ClusterTrack(/*nodes=*/false, options_, num_labels, batch,
                     edge_features, &vectorizer, pool_, tracer_,
                     &stats_.edge_params);
    stats_.edge_clusters += clusters.num_clusters();
    if (stats_.edge_params.mu == 1.0) ++stats_.mu_fallbacks;
    ScopedSpan span(tracer_, "core.candidates");
    edge_candidates = core::BuildEdgeCandidates(
        *graph_, batch, clusters, vectorizer.EdgeEndpointTokens(batch));
  }

  // (d) Algorithm 2, nodes then edges.
  {
    ScopedSpan span(tracer_, "core.extract");
    core::ExtractionOptions ext;
    ext.jaccard_threshold = options_.jaccard_threshold;
    if (!batch.node_ids.empty()) {
      core::ExtractNodeTypes(std::move(node_candidates), ext, &schema_);
    }
    if (!batch.edge_ids.empty()) {
      core::ExtractEdgeTypes(std::move(edge_candidates), ext, &schema_);
    }
  }
}

void TracedPlan::Finish() {
  {
    ScopedSpan span(tracer_, "core.constraints");
    core::InferPropertyConstraints(&schema_);
  }
  {
    ScopedSpan span(tracer_, "core.datatypes");
    core::InferDataTypes(*graph_, &schema_, options_.datatype_options, pool_);
  }
  ScopedSpan span(tracer_, "core.cardinalities");
  core::ComputeCardinalities(*graph_, &schema_);
}

size_t TracedPlan::NonFiniteRows() const {
  std::vector<float> row(word2vec_.dim());
  size_t bad = 0;
  for (size_t token = 0; token < word2vec_.num_rows(); ++token) {
    word2vec_.Embed(static_cast<pg::LabelSetToken>(token), row.data());
    if (std::any_of(row.begin(), row.end(),
                    [](float v) { return !std::isfinite(v); })) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench
