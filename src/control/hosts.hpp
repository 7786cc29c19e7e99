// Host adapter: the deployment the controller brain runs against.
//
// controller::tick() is written against a four-method Host shape -
//
//   control_sample sample();        cumulative per-shard offered packets +
//                                   each shard's (static) window size
//   bool rebalance();               migrate onto a better bucket table
//   bool rescale(std::size_t m);    elastic N -> M (false when unsupported)
//   std::size_t checkpoint();       stream a checkpoint; bytes, 0 = failed
//
// - and this file provides the real binding, pipeline_host over
// pipeline<Traits> (the appliance's memento_appliance --controller, the
// fault-injection soak, the deterministic controller tests). Sampling reads
// PRODUCER-SIDE cumulative counters - the ring stats of a started pipeline,
// or, for a pipeline that was never start()ed and so runs its stages inline
// on the producer thread, each core's ingested count - never the workers'
// shard state, so a monitor tick needs no drain barrier and perturbs
// nothing. Only the ACTIONS quiesce: rebalance, elastic rescale, checkpoint
// and the kill/restore pair the soak drives all ride the pipeline's drain
// barrier, which is also why the host must be driven from the producer
// thread (the controller_service's control lock enforces exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "control/checkpoint.hpp"
#include "control/controller.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"

namespace memento {

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
