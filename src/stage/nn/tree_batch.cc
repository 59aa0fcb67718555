#include "stage/nn/tree_batch.h"

#include <algorithm>

namespace stage::nn {

void TreeBatch::ToLevelOrder() {
  STAGE_CHECK(num_trees() > 0);
  const int n = num_nodes();
  const size_t dim = static_cast<size_t>(feature_dim_);
  staged_features_.resize(static_cast<size_t>(n) * dim);
  staged_child_start_.resize(static_cast<size_t>(n));
  staged_child_count_.resize(static_cast<size_t>(n));
  level_end_.clear();

  // Multi-source BFS over the current layout: bfs_[p] is the current slot
  // of the node that moves to slot p. Every depth-d node is dequeued before
  // any depth-(d+1) node, so a level ends where the queue stood when the
  // level's first node was dequeued.
  bfs_.assign(roots_.begin(), roots_.end());
  size_t level_end = bfs_.size();
  for (size_t p = 0; p < bfs_.size(); ++p) {
    if (p == level_end) {
      level_end_.push_back(static_cast<int32_t>(level_end));
      level_end = bfs_.size();
    }
    const int32_t old = bfs_[p];
    const int32_t start = child_start_[static_cast<size_t>(old)];
    const int32_t count = child_count_[static_cast<size_t>(old)];
    staged_child_start_[p] = static_cast<int32_t>(bfs_.size());
    staged_child_count_[p] = count;
    for (int32_t c = 0; c < count; ++c) bfs_.push_back(start + c);
    const float* src = features_.data() + static_cast<size_t>(old) * dim;
    std::copy(src, src + dim, staged_features_.data() + p * dim);
  }
  STAGE_CHECK(static_cast<int>(bfs_.size()) == n);
  level_end_.push_back(n);

  features_.swap(staged_features_);
  child_start_.swap(staged_child_start_);
  child_count_.swap(staged_child_count_);
  for (size_t t = 0; t < roots_.size(); ++t) {
    roots_[t] = static_cast<int32_t>(t);
  }
}

}  // namespace stage::nn
