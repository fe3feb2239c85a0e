#include "distributed/benu_driver.h"

namespace benu {

StatusOr<BenuResult> RunBenu(const Graph& data_graph, const Graph& pattern,
                             const BenuOptions& options) {
  const bool labeled = !options.plan.pattern_labels.empty();
  if (labeled && options.data_labels.size() != data_graph.NumVertices()) {
    return Status::InvalidArgument(
        "labeled pattern requires one label per data vertex");
  }
  if (options.cluster.transport != nullptr &&
      options.cluster.transport->num_vertices() !=
          data_graph.NumVertices()) {
    return Status::InvalidArgument(
        "transport stores " +
        std::to_string(options.cluster.transport->num_vertices()) +
        " vertices but the data graph has " +
        std::to_string(data_graph.NumVertices()));
  }

  // Preprocessing independent of P (Algorithm 2 line 1): realize the total
  // order ≺ in the vertex ids, then store adjacency sets in the DB.
  std::vector<VertexId> old_to_new;
  const Graph relabeled = options.relabel_by_degree
                              ? data_graph.RelabelByDegree(&old_to_new)
                              : data_graph;

  if (options.cluster.transport != nullptr) {
    // An external transport serves the data graph under fixed vertex
    // ids; if the enumeration side uses a different labeling (e.g. the
    // caller relabeled only one side) every fetch would silently return
    // the wrong adjacency set. The transport's hello handshake carries a
    // folded content hash of the graph it stores — validate the labeling
    // the enumeration actually uses (post-relabel) against it.
    if (options.cluster.transport->graph_hash() !=
        relabeled.FoldedContentHash()) {
      return Status::InvalidArgument(
          options.relabel_by_degree
              ? "relabel_by_degree produced a labeling the transport does "
                "not store (graph hash mismatch): build the transport "
                "from the degree-relabeled graph"
              : "transport stores a differently-labeled graph (graph "
                "hash mismatch): both sides must hold the same labeling");
    }
  }
  std::vector<int> data_labels = options.data_labels;
  if (labeled && options.relabel_by_degree) {
    for (VertexId v = 0; v < data_graph.NumVertices(); ++v) {
      data_labels[old_to_new[v]] = options.data_labels[v];
    }
  }

  // Plan generation on the master node (line 2).
  auto plan = GenerateBestPlan(pattern,
                               DataGraphStats::FromGraph(relabeled),
                               options.plan);
  BENU_RETURN_IF_ERROR(plan.status());

  // Parallel local search tasks on the cluster (lines 4-8).
  ClusterSimulator cluster(relabeled, options.cluster);
  auto run = cluster.Run(plan->plan, labeled ? &data_labels : nullptr);
  BENU_RETURN_IF_ERROR(run.status());

  BenuResult result;
  result.plan = std::move(plan).value();
  result.run = std::move(run).value();
  return result;
}

StatusOr<Count> CountSubgraphs(const Graph& data_graph,
                               const Graph& pattern) {
  BenuOptions options;
  options.cluster.num_workers = 1;
  options.cluster.threads_per_worker = 1;
  options.cluster.db_cache_bytes = 1u << 30;
  auto result = RunBenu(data_graph, pattern, options);
  BENU_RETURN_IF_ERROR(result.status());
  return result->run.total_matches;
}

}  // namespace benu
