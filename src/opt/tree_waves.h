// Wave scheduling for tree-shaped evaluation passes: every pass of the
// bag-program executor (opt/bag_program.h) and the sharded exchange
// reduction (exec/shard.h).
//
// A bottom-up pass computes each node from its (already-computed) children
// only, so all nodes of equal height are independent; a top-down pass reads
// the parent only, so all nodes of equal depth are independent. Grouping
// nodes into height (resp. depth) "waves" and running each wave on the
// thread pool parallelizes sibling subtrees while every cross-wave data
// dependency stays a strict barrier.
//
// Determinism contract: node bodies write only their own slots, so results
// are independent of execution order inside a wave. Error selection is the
// failing node earliest in the wave's (postorder-derived) order — the same
// node a serial sweep would report when failures are deterministic — and a
// governor trip mid-wave surfaces as the trip status even when later chunks
// were never claimed.
//
// Memory-adaptive execution composes with waves without extra machinery:
// each node body calls the spill-aware operators, which consult the shared
// (thread-safe) SpillManager through the one ExecContext, so every node of
// a wave decides independently whether its join/semijoin/distinct spills.
// The spill path itself is serial per operator, which keeps per-node output
// byte-identical at any thread count.

#ifndef HTQO_OPT_TREE_WAVES_H_
#define HTQO_OPT_TREE_WAVES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "exec/operators.h"
#include "util/status.h"

namespace htqo {

// Nodes grouped by height, leaves (height 0) first; within a wave, nodes
// keep their relative postorder. `postorder` must list children before
// parents and cover every node.
inline std::vector<std::vector<std::size_t>> HeightWaves(
    const std::vector<std::size_t>& postorder,
    const std::vector<std::vector<std::size_t>>& children) {
  std::vector<std::size_t> height(children.size(), 0);
  std::size_t max_h = 0;
  for (std::size_t p : postorder) {
    for (std::size_t c : children[p]) {
      height[p] = std::max(height[p], height[c] + 1);
    }
    max_h = std::max(max_h, height[p]);
  }
  std::vector<std::vector<std::size_t>> waves(postorder.empty() ? 0
                                                                : max_h + 1);
  for (std::size_t p : postorder) waves[height[p]].push_back(p);
  return waves;
}

// Nodes grouped by depth, roots (depth 0) first; within a wave, nodes keep
// their relative reverse-postorder (preorder). `none` is the parent value
// marking a root.
inline std::vector<std::vector<std::size_t>> DepthWaves(
    const std::vector<std::size_t>& postorder,
    const std::vector<std::size_t>& parent, std::size_t none) {
  std::vector<std::size_t> depth(parent.size(), 0);
  std::size_t max_d = 0;
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    std::size_t p = *it;
    depth[p] = parent[p] == none ? 0 : depth[parent[p]] + 1;
    max_d = std::max(max_d, depth[p]);
  }
  std::vector<std::vector<std::size_t>> waves(postorder.empty() ? 0
                                                                : max_d + 1);
  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    waves[depth[*it]].push_back(*it);
  }
  return waves;
}

// Runs node_body over each wave in order, fanning a wave's nodes out onto
// the context's pool when ctx->parallel(); with one lane they run in wave
// order on the calling thread. The same waves at every thread count put
// replan trip decisions at the same barriers.
//
// `wave_barrier`, when set, runs on the calling thread after each wave
// except the last, once every node body of the wave has joined; a non-ok
// status aborts the remaining waves (used for mid-query replan trips).
inline Status RunWaves(ExecContext* ctx,
                       const std::vector<std::vector<std::size_t>>& waves,
                       const std::function<Status(std::size_t)>& node_body,
                       const std::function<Status()>& wave_barrier = {}) {
  // Pool lanes parent their spans through ctx->trace_parent; repointing it
  // at each wave's span is race-free because the write happens on the
  // calling thread between barrier waves (task handoff and join give
  // happens-before both ways).
  const uint64_t saved_parent = ctx->trace_parent;
  std::size_t wave_index = 0;
  Status result = Status::Ok();
  for (const std::vector<std::size_t>& wave : waves) {
    ScopedSpan wave_span(ctx->tracer, "wave");
    wave_span.Attr("index", wave_index++);
    wave_span.Attr("nodes", wave.size());
    const std::size_t batches_before =
        ctx->batches.load(std::memory_order_relaxed);
    ctx->trace_parent = wave_span.id() != 0 ? wave_span.id() : saved_parent;
    if (ctx->parallel() && wave.size() > 1) {
      std::vector<Status> status(wave.size(), Status::Ok());
      ctx->pool->ParallelFor(0, wave.size(), /*grain=*/1, ctx->num_threads,
                             ctx->governor,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) {
                                 status[i] = node_body(wave[i]);
                               }
                             });
      if (ctx->governor != nullptr && ctx->governor->exhausted()) {
        result = ctx->governor->trip_status();
      } else {
        for (const Status& s : status) {
          if (!s.ok()) {
            result = s;
            break;
          }
        }
      }
    } else {
      for (std::size_t p : wave) {
        Status s = node_body(p);
        if (!s.ok()) {
          result = s;
          break;
        }
      }
    }
    wave_span.Attr("batches", ctx->batches.load(std::memory_order_relaxed) -
                                  batches_before);
    if (!result.ok()) break;
    if (wave_barrier && wave_index < waves.size()) {
      result = wave_barrier();
      if (!result.ok()) break;
    }
  }
  ctx->trace_parent = saved_parent;
  return result;
}

}  // namespace htqo

#endif  // HTQO_OPT_TREE_WAVES_H_
