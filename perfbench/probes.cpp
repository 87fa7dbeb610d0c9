#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "comm/delta_codec.hpp"
#include "common/math_utils.hpp"
#include "core/round_logic.hpp"
#include "data/batch_iterator.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_trainer.hpp"
#include "net/socket_util.hpp"
#include "net/transport.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/param_utils.hpp"
#include "rt/collectives.hpp"
#include "rt/transport.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace hadfl;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall ms of `fn` over at least `min_iters` calls and at least
/// `min_seconds` of calls.
template <class Fn>
double median_ms(Fn&& fn, std::size_t min_iters, double min_seconds) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < min_iters || ms_since(start) < 1e3 * min_seconds) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_since(t0));
  }
  return median(std::move(samples));
}

std::vector<float> random_floats(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(gen);
  return v;
}

enum class GemmKind { kPlain, kAt, kBt };
struct GemmShape {
  GemmKind kind;
  std::size_t m, k, n;
};

/// The three GEMMs nn::Conv2d runs per training step for one convolution
/// (forward, weight gradient, input gradient).
void add_conv(std::vector<GemmShape>& out, std::size_t cin, std::size_t cout,
              std::size_t kernel, std::size_t out_hw, std::size_t batch) {
  const std::size_t rows = cin * kernel * kernel;
  const std::size_t cols = batch * out_hw * out_hw;
  out.push_back({GemmKind::kPlain, cout, rows, cols});
  out.push_back({GemmKind::kBt, cout, cols, rows});
  out.push_back({GemmKind::kAt, rows, cout, cols});
}

/// ResNet18Lite's layer plan (nn/model_zoo.cpp: 3x3 stem, four stages of
/// two basic blocks, global pool, linear classifier) as GEMM shapes.
std::vector<GemmShape> resnet_gemm_shapes(const nn::ModelConfig& cfg,
                                          std::size_t batch) {
  std::vector<GemmShape> shapes;
  const std::size_t b = cfg.base_channels;
  std::size_t hw = cfg.image_size;
  add_conv(shapes, cfg.in_channels, b, 3, hw, batch);
  const std::size_t blocks[8][3] = {{b, b, 1},         {b, b, 1},
                                    {b, 2 * b, 2},     {2 * b, 2 * b, 1},
                                    {2 * b, 4 * b, 2}, {4 * b, 4 * b, 1},
                                    {4 * b, 8 * b, 2}, {8 * b, 8 * b, 1}};
  for (const auto& [cin, cout, stride] : blocks) {
    const std::size_t out_hw = (hw - 1) / stride + 1;
    add_conv(shapes, cin, cout, 3, out_hw, batch);   // conv1
    add_conv(shapes, cout, cout, 3, out_hw, batch);  // conv2
    if (stride != 1 || cin != cout) {
      add_conv(shapes, cin, cout, 1, out_hw, batch);  // projection
    }
    hw = out_hw;
  }
  // Classifier: forward, weight gradient, input gradient (nn/dense.cpp).
  shapes.push_back({GemmKind::kPlain, batch, 8 * b, cfg.num_classes});
  shapes.push_back({GemmKind::kAt, 8 * b, batch, cfg.num_classes});
  shapes.push_back({GemmKind::kBt, batch, cfg.num_classes, 8 * b});
  return shapes;
}

/// Runs one K-member weighted ring aggregation, a thread per member, and
/// reports whether every member ended with `want` bit-for-bit.
bool ring_once(const std::vector<rt::Transport*>& endpoints,
               const std::vector<std::vector<float>>& locals,
               const std::vector<double>& weights,
               std::vector<std::vector<float>>& outs, std::int64_t cid,
               const std::vector<float>& want) {
  const std::size_t k = locals.size();
  std::vector<rt::DeviceId> ring(k);
  for (std::size_t i = 0; i < k; ++i) ring[i] = static_cast<rt::DeviceId>(i);
  std::vector<std::thread> members;
  std::vector<char> ok(k, 0);
  members.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    members.emplace_back([&, i] {
      try {
        core::WeightedRingFold fold;
        rt::ring_weighted_aggregate(*endpoints[i], ring, i, locals[i],
                                    weights, fold, outs[i], cid,
                                    /*wire_bytes=*/0,
                                    /*step_timeout_s=*/30.0);
        ok[i] = outs[i].size() == want.size() &&
                std::memcmp(outs[i].data(), want.data(),
                            want.size() * sizeof(float)) == 0;
      } catch (...) {
        ok[i] = 0;
      }
    });
  }
  for (auto& t : members) t.join();
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

RingProbe time_ring(const std::vector<rt::Transport*>& endpoints,
                    std::size_t elems) {
  const std::size_t k = endpoints.size();
  std::vector<std::vector<float>> locals(k);
  std::vector<double> weights(k);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    locals[i] = random_floats(elems, static_cast<std::uint32_t>(100 + i));
    weights[i] = static_cast<double>(i + 1);
    weight_sum += weights[i];
  }
  for (double& w : weights) w /= weight_sum;
  core::WeightedRingFold ref;
  ref.reset(elems);
  for (std::size_t i = 0; i < k; ++i) ref.add(0, locals[i], weights[i]);
  std::vector<float> want(elems);
  ref.write(0, want);

  std::vector<std::vector<float>> outs(k, std::vector<float>(elems));
  std::int64_t cid = 1;
  bool exact = true;
  for (int warm = 0; warm < 3; ++warm) {
    exact = ring_once(endpoints, locals, weights, outs, cid++, want) && exact;
  }
  RingProbe probe;
  probe.ms = median_ms(
      [&] {
        exact = ring_once(endpoints, locals, weights, outs, cid++, want) &&
                exact;
      },
      20, 0.3);
  probe.exact = exact;
  return probe;
}

}  // namespace

double probe_gemm_gflops(const nn::ModelConfig& resnet, std::size_t batch) {
  const std::vector<GemmShape> shapes = resnet_gemm_shapes(resnet, batch);
  std::size_t a_max = 0, b_max = 0, c_max = 0;
  double flops = 0.0;
  for (const GemmShape& s : shapes) {
    a_max = std::max(a_max, s.m * s.k);
    b_max = std::max(b_max, s.k * s.n);
    c_max = std::max(c_max, s.m * s.n);
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
  }
  const std::vector<float> a = random_floats(a_max, 1);
  const std::vector<float> b = random_floats(b_max, 2);
  std::vector<float> c(c_max);
  const auto pass = [&] {
    for (const GemmShape& s : shapes) {
      switch (s.kind) {
        case GemmKind::kPlain:
          ops::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
          break;
        case GemmKind::kAt:
          ops::gemm_at(a.data(), b.data(), c.data(), s.m, s.k, s.n);
          break;
        case GemmKind::kBt:
          ops::gemm_bt(a.data(), b.data(), c.data(), s.m, s.k, s.n);
          break;
      }
    }
  };
  for (int warm = 0; warm < 3; ++warm) pass();
  const double ms = median_ms(pass, 20, 0.5);
  return flops / (ms * 1e-3) / 1e9;
}

NnTimes probe_nn(const fl::SchemeContext& ctx) {
  Rng rng(ctx.config.seed);
  std::unique_ptr<nn::Sequential> model = ctx.make_model(rng);
  model->pack();
  nn::Sgd optimizer(model->parameters(),
                    nn::SgdConfig{ctx.config.learning_rate,
                                  ctx.config.momentum,
                                  ctx.config.weight_decay});
  data::BatchIterator batches(ctx.train, ctx.partition[0],
                              ctx.config.device_batch_size, rng.split());
  fl::run_local_steps(*model, optimizer, batches, 3);  // warm-up

  NnTimes t;
  std::vector<double> fwd, bwd, upd, nxt;
  nn::SoftmaxCrossEntropy loss;
  const auto start = Clock::now();
  while (fwd.size() < 30 || ms_since(start) < 500.0) {
    auto t0 = Clock::now();
    data::Batch batch = batches.next();
    nxt.push_back(ms_since(t0));
    t0 = Clock::now();
    const Tensor logits = model->forward(batch.x, /*training=*/true);
    fwd.push_back(ms_since(t0));
    t0 = Clock::now();
    loss.forward(logits, batch.y);
    model->backward(loss.backward());
    bwd.push_back(ms_since(t0));
    t0 = Clock::now();
    optimizer.step_and_zero();
    upd.push_back(ms_since(t0));
  }
  t.forward_ms = median(fwd);
  t.backward_ms = median(bwd);
  t.update_ms = median(upd);
  t.batch_us = 1e3 * median(nxt);
  t.step_ms = median_ms(
      [&] { fl::run_local_steps(*model, optimizer, batches, 1); }, 30, 0.5);
  t.eval_ms = median_ms([&] { fl::evaluate(*model, ctx.test); }, 5, 0.3);
  return t;
}

CodecRates probe_codec(std::span<const float> state, double topk_ratio) {
  const std::size_t n = state.size();
  const std::size_t chunks = comm::resolve_chunk_count(0, n);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  for (std::size_t c = 0; c < chunks; ++c) ranges[c] = chunk_range(n, chunks, c);

  const auto rate = [&](comm::SyncCodec codec, bool decode) {
    std::vector<std::vector<float>> payloads(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = ranges[c];
      payloads[c].resize(comm::encoded_chunk_floats(codec, e - b, topk_ratio));
      comm::encode_chunk(codec, state.subspan(b, e - b), topk_ratio,
                         payloads[c]);
    }
    std::vector<float> decoded(n);
    const double ms = median_ms(
        [&] {
          for (std::size_t c = 0; c < chunks; ++c) {
            const auto [b, e] = ranges[c];
            if (decode) {
              comm::decode_chunk(codec, payloads[c],
                                 std::span<float>(decoded).subspan(b, e - b));
            } else {
              comm::encode_chunk(codec, state.subspan(b, e - b), topk_ratio,
                                 payloads[c]);
            }
          }
        },
        20, 0.2);
    return static_cast<double>(n * sizeof(float)) / (ms * 1e-3) / 1e9;
  };
  CodecRates r;
  r.int8_encode_gbps = rate(comm::SyncCodec::kInt8, false);
  r.int8_decode_gbps = rate(comm::SyncCodec::kInt8, true);
  r.topk_encode_gbps = rate(comm::SyncCodec::kTopK, false);
  return r;
}

RingProbe probe_inproc_ring(std::size_t elems) {
  constexpr std::size_t kMembers = 4;
  rt::InprocTransport transport(kMembers, sim::NetworkModel{1e-5, 1e9});
  const std::vector<rt::Transport*> endpoints(kMembers, &transport);
  return time_ring(endpoints, elems);
}

RingProbe probe_socket_ring(std::size_t elems) {
  constexpr std::size_t kMembers = 4;
  std::vector<std::uint16_t> ports(kMembers);
  std::vector<int> fds(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    const net::TcpListener listener = net::make_tcp_listener();
    fds[i] = listener.fd;
    ports[i] = listener.port;
  }
  std::vector<std::unique_ptr<net::SocketTransport>> sockets;
  for (std::size_t i = 0; i < kMembers; ++i) {
    net::SocketTransportOptions o;
    o.self = static_cast<rt::DeviceId>(i);
    o.num_devices = kMembers;
    o.epoch = 1;
    o.kind = net::TransportKind::kTcp;
    o.listen_fd = fds[i];
    o.peer_ports = ports;
    o.expect_coordinator = false;
    sockets.push_back(std::make_unique<net::SocketTransport>(o));
  }
  for (auto& s : sockets) s->wait_ready();
  std::vector<rt::Transport*> endpoints;
  for (auto& s : sockets) endpoints.push_back(s.get());
  return time_ring(endpoints, elems);
}

}  // namespace perfbench
