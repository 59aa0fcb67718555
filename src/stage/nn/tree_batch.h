#ifndef STAGE_NN_TREE_BATCH_H_
#define STAGE_NN_TREE_BATCH_H_

#include <cstdint>
#include <vector>

#include "stage/common/macros.h"

namespace stage::nn {

// A forest of plan trees re-laid out for level-order batched GCN execution
// (TreeGcn::ForwardBatch / BackwardBatch).
//
// Each added tree's nodes are re-numbered into BFS order, which groups them
// by depth (root first, then every depth-1 node, ...). Two properties make
// the batched kernels simple and fast:
//   * Because a GCN layer's output for every node depends only on the
//     PREVIOUS layer's activations (a node aggregates its children's
//     layer-l features to compute layer l+1), there is no intra-layer
//     ordering constraint at all — one GEMM per (layer, transform) covers
//     a whole row range of the forest at once.
//   * BFS appends each parent's children consecutively, so a node's
//     children occupy one contiguous slot range [child_start, child_start +
//     child_count) — the child-mean aggregation streams contiguous rows
//     instead of chasing indices.
// Children are appended in their original list order, so per-node
// aggregation sums terms in exactly the order the naive single-tree walk
// does (bit-for-bit identical results).
//
// Two layouts share those properties:
//   * Tree-major (what AddTree builds): tree 0's BFS slots, then tree 1's,
//     ... The training layout — backward's ascending-row gradient sums,
//     and with them the trained bytes, are defined over it.
//   * Level order (ToLevelOrder, the inference layout): one BFS from all
//     roots at once, so slots run every root (slots 0..T-1), then every
//     depth-1 node, then every depth-2 node, ... Each depth level is a
//     contiguous slot range and the nodes of depth <= d form a row prefix
//     (RowsThroughDepth). An L-layer GCN's root reads layer l only at
//     depth <= L-1-l, so inference computes just that prefix per layer.
//
// The batch is reusable: Clear() keeps every buffer's capacity, so building
// the same-shaped batch again allocates nothing.
class TreeBatch {
 public:
  // Resets to an empty batch of `feature_dim`-wide nodes.
  void Clear(int feature_dim) {
    STAGE_CHECK(feature_dim > 0);
    feature_dim_ = feature_dim;
    features_.clear();
    child_start_.clear();
    child_count_.clear();
    roots_.clear();
    level_end_.clear();
  }

  // Adds one tree rooted at node 0. `features` is row-major
  // [num_nodes x feature_dim] in the tree's own node order; `children_of(i)`
  // returns node i's children as a const std::vector<int32_t>&. The nodes
  // must form a tree (every non-root reachable from the root exactly once).
  template <typename ChildrenOf>
  void AddTree(const float* features, int num_nodes,
               ChildrenOf&& children_of) {
    STAGE_CHECK(num_nodes > 0);
    STAGE_CHECK_MSG(level_end_.empty(), "AddTree after ToLevelOrder");
    const int32_t base = static_cast<int32_t>(child_start_.size());
    roots_.push_back(base);
    child_start_.resize(static_cast<size_t>(base) + num_nodes);
    child_count_.resize(static_cast<size_t>(base) + num_nodes);
    features_.resize((static_cast<size_t>(base) + num_nodes) * feature_dim_);
    bfs_.clear();
    bfs_.push_back(0);
    for (int32_t p = 0; p < num_nodes; ++p) {
      STAGE_CHECK_MSG(p < static_cast<int32_t>(bfs_.size()),
                      "disconnected tree");
      const int32_t old = bfs_[p];
      const std::vector<int32_t>& kids = children_of(old);
      child_start_[base + p] = base + static_cast<int32_t>(bfs_.size());
      child_count_[base + p] = static_cast<int32_t>(kids.size());
      for (int32_t c : kids) {
        STAGE_CHECK(c >= 0 && c < num_nodes);
        bfs_.push_back(c);
      }
      const float* src = features + static_cast<size_t>(old) * feature_dim_;
      float* dst =
          features_.data() + static_cast<size_t>(base + p) * feature_dim_;
      for (int j = 0; j < feature_dim_; ++j) dst[j] = src[j];
    }
    STAGE_CHECK_MSG(static_cast<int>(bfs_.size()) == num_nodes,
                    "node set is not a tree");
  }

  // Convenience overload for adjacency stored as vector-of-vectors.
  void AddTree(const float* features, int num_nodes,
               const std::vector<std::vector<int32_t>>& children) {
    STAGE_CHECK(static_cast<int>(children.size()) == num_nodes);
    AddTree(features, num_nodes,
            [&children](int32_t i) -> const std::vector<int32_t>& {
              return children[static_cast<size_t>(i)];
            });
  }

  // Re-lays the whole forest out in level order (see the class comment):
  // one BFS from every root in tree order, appending each node's children
  // in their list order, so child ranges stay contiguous and ordered and
  // tree t's root lands in slot t. Call after the last AddTree; the next
  // AddTree needs a Clear() first. Allocation-free once warm.
  void ToLevelOrder();

  // Rows [0, RowsThroughDepth(depth)) hold every node of depth <= `depth`
  // (roots are depth 0): exactly those nodes in a level-order batch, and
  // all rows in a tree-major one, where depths interleave.
  int RowsThroughDepth(int depth) const {
    STAGE_DCHECK(depth >= 0);
    if (static_cast<size_t>(depth) >= level_end_.size()) return num_nodes();
    return level_end_[static_cast<size_t>(depth)];
  }

  int feature_dim() const { return feature_dim_; }
  int num_nodes() const { return static_cast<int>(child_start_.size()); }
  int num_trees() const { return static_cast<int>(roots_.size()); }

  // Node features, row-major [num_nodes x feature_dim], in slot order.
  const float* features() const { return features_.data(); }

  // Slot of tree t's root.
  int32_t root_slot(int t) const { return roots_[static_cast<size_t>(t)]; }

  // Node `slot`'s children are slots [child_start(slot),
  // child_start(slot) + child_count(slot)).
  int32_t child_start(int slot) const {
    return child_start_[static_cast<size_t>(slot)];
  }
  int32_t child_count(int slot) const {
    return child_count_[static_cast<size_t>(slot)];
  }

 private:
  int feature_dim_ = 0;
  std::vector<float> features_;
  std::vector<int32_t> child_start_;
  std::vector<int32_t> child_count_;
  std::vector<int32_t> roots_;
  // Level order only: level_end_[d] = number of nodes of depth <= d (empty
  // in the tree-major layout).
  std::vector<int32_t> level_end_;
  // Scratch: AddTree's BFS queue of old indices, then ToLevelOrder's queue
  // of tree-major slots.
  std::vector<int32_t> bfs_;
  // ToLevelOrder's output buffers, swapped with the live ones.
  std::vector<float> staged_features_;
  std::vector<int32_t> staged_child_start_;
  std::vector<int32_t> staged_child_count_;
};

}  // namespace stage::nn

#endif  // STAGE_NN_TREE_BATCH_H_
