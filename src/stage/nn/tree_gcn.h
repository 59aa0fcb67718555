#ifndef STAGE_NN_TREE_GCN_H_
#define STAGE_NN_TREE_GCN_H_

#include <cstdint>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/linear.h"
#include "stage/nn/tree_batch.h"

namespace stage::nn {

// A directed graph-convolution network over a tree, the architecture of the
// paper's global model (§4.4): at every layer each node combines its own
// features with the mean of its children's features through two learned
// linear maps, followed by ReLU (and dropout in training). After L layers
// the root's representation summarizes the whole plan.
//
// Execution is level-order batched (see tree_batch.h): because layer l+1
// activations depend only on layer-l activations, every layer runs as one
// child-aggregation sweep plus exactly two GEMMs (self and child
// transforms) over a row prefix of the whole forest — instead of
// 2 * num_nodes matrix-vector products. Results are bit-for-bit identical
// to the naive per-node walk (the kernels keep each element's naive
// accumulation order; aggregation sums children in their original order).
//
// The prefix is the root's receptive field. Only the root's layer-L row is
// read, and a node's layer-(l+1) row reads its own and its children's
// layer-l rows, so a depth-d node reaches the root only through layers
// l <= L-1-d. Layer l therefore needs just the nodes of depth <= L-1-l,
// which a level-order batch (the inference layout) stores as a row prefix;
// the other rows are never computed and roots are bit-identical to a full
// pass. A tree-major batch (the training layout) has no such prefix, so
// every layer covers every row — which BackwardBatch requires.
class TreeGcn {
 public:
  struct Config {
    int input_dim = 0;
    int hidden_dim = 64;
    int num_layers = 3;
    float dropout = 0.2f;
  };

  // Scratch for a forward pass and its matching backward. Everything lives
  // in one Arena rewound (not freed) per Forward, so repeated calls make
  // zero heap allocations once warmed up to the largest batch seen.
  struct Workspace {
    Arena arena;
    // acts[l]: layer-l activations, row-major [num_nodes x dim_l] in batch
    // slot order, where dim_0 = input_dim and dim_{l>0} = hidden_dim.
    // acts[0] aliases the batch's feature matrix (never written).
    std::vector<float*> acts;
    // aggs[l]: mean-of-children inputs to layer l, [num_nodes x dim_l].
    std::vector<float*> aggs;
    // masks[l]: dropout multipliers for layer l outputs (nullptr in eval).
    std::vector<float*> masks;
    // Root representations, [num_trees x hidden_dim].
    float* roots = nullptr;
    int num_nodes = 0;
    // layer_rows[l]: rows [0, layer_rows[l]) that layer l computed into
    // aggs[l] / acts[l + 1] / masks[l]; rows past it were never written.
    std::vector<int> layer_rows;

    // Single-tree convenience batch used by Forward/Backward.
    TreeBatch single;

    // Heap floats retained across calls; stops growing once warm.
    size_t CapacityFloats() const { return arena.CapacityFloats(); }
  };

  TreeGcn() = default;

  void Init(const Config& config, Rng& rng);

  int hidden_dim() const { return config_.hidden_dim; }
  int input_dim() const { return config_.input_dim; }

  // Runs message passing over a tree given per-node input features
  // (row-major [n x input_dim]) and each node's children indices.
  // Returns a pointer to the root (node 0) representation inside `ws`.
  const float* Forward(const float* node_features, int num_nodes,
                       const std::vector<std::vector<int32_t>>& children,
                       Workspace* ws, bool train = false,
                       Rng* rng = nullptr) const;

  // Level-order batched forward over a whole forest. Returns the root
  // representations, row-major [batch.num_trees() x hidden_dim], inside
  // `ws`. Each tree's root row is bit-for-bit identical to Forward on that
  // tree alone, in either batch layout. Layer l computes rows
  // [0, batch.RowsThroughDepth(L-1-l)): the receptive field of a
  // level-order batch, every row of a tree-major one. Dropout masks are
  // drawn serially on the calling thread in slot-major order, so results
  // are independent of `pool` (which only fans out the GEMMs).
  const float* ForwardBatch(const TreeBatch& batch, Workspace* ws,
                            bool train = false, Rng* rng = nullptr,
                            ThreadPool* pool = nullptr) const;

  // Accumulates parameter gradients given dL/d(root representation).
  void Backward(const float* droot,
                const std::vector<std::vector<int32_t>>& children,
                Workspace& ws);

  // Batched backward: `droots` is [batch.num_trees() x hidden_dim] for the
  // batch of the matching ForwardBatch, which must have computed every row
  // (a tree-major batch); after a pruned level-order forward it fails a
  // STAGE_CHECK rather than read rows that were never computed. Gradient
  // bytes are identical for any pool width, including none.
  void BackwardBatch(const float* droots, const TreeBatch& batch,
                     Workspace& ws, ThreadPool* pool = nullptr);

  void ZeroGrad();
  void Step(const AdamConfig& config, double grad_divisor);
  size_t MemoryBytes() const;
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  int LayerInDim(int layer) const {
    return layer == 0 ? config_.input_dim : config_.hidden_dim;
  }

  Config config_;
  std::vector<Linear> self_;   // One per layer: transforms the node itself.
  std::vector<Linear> child_;  // One per layer: transforms the child mean.
};

}  // namespace stage::nn

#endif  // STAGE_NN_TREE_GCN_H_
