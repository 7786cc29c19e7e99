// Host adapters: the deployments the controller brain can run against.
//
// controller::tick() is written against a four-method Host shape -
//
//   control_sample sample();        cumulative per-shard offered packets +
//                                   each shard's (static) window size
//   bool rebalance();               migrate onto a better bucket table
//   bool rescale(std::size_t m);    elastic N -> M (false when unsupported)
//   std::size_t checkpoint();       stream a checkpoint; bytes, 0 = failed
//
// - and this file provides the two real bindings. The sampling rule is
// the same everywhere: read PRODUCER-SIDE cumulative counters (ring stats
// for the threaded host, per-shard stream lengths for the deterministic
// one), never the workers' shard state, so a monitor tick needs no drain
// barrier and perturbs nothing. Only the ACTIONS quiesce: rebalance /
// rescale / checkpoint ride each deployment's existing drain discipline,
// which is also why every host must be driven from the producer thread (the
// controller_service's control lock enforces exactly that).
//
//   front_host     a bare sharded_memento / sharded_h_memento on the calling
//                  thread - the deterministic harness tests script, and the
//                  single-threaded embedding. rescale() runs the snapshot
//                  reshard for either frontend; it refuses hierarchical
//                  N -> M (future work; the brain logs scale_rejected and
//                  carries on).
//   pipeline_host  pipeline<Traits> - the threaded binding (the appliance's
//                  memento_appliance --controller, the fault-injection soak):
//                  full lifecycle behind the pipeline's drain barrier -
//                  rebalance, elastic rescale, checkpoint, plus the
//                  kill/restore pair the soak drives. A pipeline that was
//                  never start()ed runs its stages inline on the producer
//                  thread, so there the per-core ingested counts are the
//                  producer-side counters and are sampled instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "control/checkpoint.hpp"
#include "control/controller.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_memento.hpp"
#include "snapshot/reshard.hpp"

namespace memento {

/// Deterministic single-threaded host: the frontend lives on the calling
/// thread, so sampling reads per-shard stream lengths directly.
template <typename Front>
class front_host {
 public:
  front_host(Front& front, checkpoint_store& store, rebalance_config rcfg = {})
      : front_(&front), store_(&store), balancer_(rcfg) {}

  [[nodiscard]] control_sample sample() const {
    control_sample s;
    const std::size_t n = front_->num_shards();
    s.offered.reserve(n);
    s.window.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.offered.push_back(front_->shard(i).stream_length());
      s.window.push_back(front_->shard(i).window_size());
    }
    return s;
  }

  bool rebalance() { return front_->rebalance(balancer_); }
  /// Elastic N -> M through the snapshot reshard; false (and no change)
  /// when the transport refuses, which it always does for the hierarchical
  /// frontend (its wildcard prefixes have no owner to re-route).
  bool rescale(std::size_t target) {
    if (target == front_->num_shards()) return false;
    auto next = reshard_to(*front_, target);
    if (!next) return false;
    *front_ = std::move(*next);
    return true;
  }
  std::size_t checkpoint() { return store_->capture(*front_); }

  /// Replaces the frontend from the latest checkpoint; the restored global
  /// stream length (0 = no image / corrupt - nothing replaced).
  std::uint64_t restore() {
    auto image = store_->template restore_latest<Front>();
    if (!image) return 0;
    const std::uint64_t len = image->stream_length();
    *front_ = std::move(*image);
    return len;
  }

  [[nodiscard]] checkpoint_store& store() noexcept { return *store_; }

 private:
  Front* front_;
  checkpoint_store* store_;
  coverage_rebalancer balancer_;
};

/// Pipeline host: the run-to-completion pipeline. In push mode it samples
/// the producer-side ring stats (enqueued + drops = offered); inline (never
/// started) no ring is touched, and each core's ingested count - written by
/// the calling thread itself - is the offered count. Every action goes
/// through the pipeline's drain-barrier lifecycle hooks.
template <typename Traits = flow_key_traits>
class pipeline_host {
 public:
  using pipe_type = pipeline<Traits>;
  using frontend_type = typename pipe_type::frontend_type;

  pipeline_host(pipe_type& pipe, checkpoint_store& store, rebalance_config rcfg = {})
      : pipe_(&pipe), store_(&store), balancer_(rcfg) {}

  [[nodiscard]] control_sample sample() const {
    control_sample s;
    const std::size_t n = pipe_->cores();
    s.offered.reserve(n);
    s.window.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      if (pipe_->started()) {
        const ring_stats& st = pipe_->ingest_stats(c);
        s.offered.push_back(st.enqueued + st.drops);
      } else {
        s.offered.push_back(pipe_->report(c).ingested);
      }
      // Window sizes are fixed at shard construction - the one piece of
      // shard state a monitor may read without draining.
      s.window.push_back(pipe_->frontend().shard(c).window_size());
    }
    return s;
  }

  bool rebalance() { return pipe_->rebalance(balancer_); }
  bool rescale(std::size_t target) { return pipe_->rescale(target); }

  std::size_t checkpoint() {
    pipe_->drain();
    return store_->capture(pipe_->frontend());
  }

  /// Crash recovery: adopts the latest checkpoint image as the pipeline's
  /// frontend (cores rebuilt, accounting retired). Returns the restored
  /// global stream length, 0 when there is no usable image.
  std::uint64_t restore() {
    auto image = store_->template restore_latest<frontend_type>();
    if (!image) return 0;
    const std::uint64_t len = image->stream_length();
    pipe_->adopt(std::move(*image));
    return len;
  }

  /// Fault injection: wipe core c's shard as if its process died blank.
  void kill_shard(std::size_t c) { pipe_->kill_shard(c); }

  [[nodiscard]] checkpoint_store& store() noexcept { return *store_; }

 private:
  pipe_type* pipe_;
  checkpoint_store* store_;
  coverage_rebalancer balancer_;
};

}  // namespace memento
