// Layer probes: each times calls into one module's public functions from
// outside, after the workload's training runs have warmed the process up.
// No probe adds instrumentation inside src/.
#pragma once

#include <cstddef>
#include <span>

#include "fl/scheme.hpp"
#include "nn/model_zoo.hpp"

namespace perfbench {

/// tensor: GF/s of ops::gemm / gemm_at / gemm_bt over the conv-as-GEMM
/// training shapes of ResNet18Lite (forward, weight-grad and input-grad
/// GEMM of every conv, plus the classifier) at `batch` samples.
double probe_gemm_gflops(const hadfl::nn::ModelConfig& resnet, std::size_t batch);

/// nn / data / fl timings of one device batch on the workload's model,
/// built the way the engines build a device (fresh model, packed, Sgd with
/// the run's lr and momentum, BatchIterator over device 0's partition).
struct NnTimes {
  double forward_ms = 0.0;   ///< Sequential::forward (training mode)
  double backward_ms = 0.0;  ///< loss backward + Sequential::backward
  double update_ms = 0.0;    ///< Sgd::step_and_zero
  double step_ms = 0.0;      ///< fl::run_local_steps, one step
  double eval_ms = 0.0;      ///< fl::evaluate on the test split
  double batch_us = 0.0;     ///< BatchIterator::next
};
NnTimes probe_nn(const hadfl::fl::SchemeContext& ctx);

/// comm: delta-codec throughput in GB/s of dense input, over `state` split
/// on the default sync chunk grid.
struct CodecRates {
  double int8_encode_gbps = 0.0;
  double int8_decode_gbps = 0.0;
  double topk_encode_gbps = 0.0;
};
CodecRates probe_codec(std::span<const float> state, double topk_ratio);

/// One K=4 rt::ring_weighted_aggregate of an `elems`-float state: median
/// wall ms over repeated collectives, and whether every member's aggregate
/// was bit-identical to the single-threaded reference fold.
struct RingProbe {
  double ms = 0.0;
  bool exact = false;
};
RingProbe probe_inproc_ring(std::size_t elems);     ///< rt::InprocTransport
RingProbe probe_socket_ring(std::size_t elems);     ///< net::SocketTransport, TCP loopback

}  // namespace perfbench
