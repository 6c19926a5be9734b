// Serving workload: a small classifier behind serve::Router with two
// single-rank replica groups (two busy threads, like the training workloads:
// see train.cpp). Phase 1 sends open-loop Poisson arrivals at a fixed
// rate below capacity on an absolute schedule (each request timed from its
// due time); phase 2 sends back-to-back bursts that keep every dispatched
// batch full, and its drain rate is the capacity. Every response is checked
// bitwise against a single-rank oracle, outside the timed windows.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "perf/conv_planner.hpp"
#include "probes.hpp"
#include "serve/router.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace distconv;

namespace {

constexpr int kReplicas = 2;  ///< single-rank replica groups
constexpr int kBudget = 1;
constexpr int kMaxBatch = 8;
constexpr std::int64_t kImage = 32;
constexpr int kClasses = 10;
constexpr int kTopK = 3;
/// Open-loop arrival rate (requests/s) and the latency limit a request must
/// meet, measured from its due time. The rate sits well below the capacity
/// the burst phase measures on a 4-core machine.
constexpr double kRate = 600.0;
constexpr double kLatencyLimitMs = 50.0;
/// Share of the run's seconds spent in the open phase; the rest is bursts.
constexpr double kOpenShare = 0.7;
/// Requests per burst: every replica receives a whole number of full batches.
constexpr int kBurst = kReplicas * kMaxBatch * 16;
/// Latencies come from blocks of kRequestBlock consecutive open-phase
/// requests, capacity from blocks of kBurstBlock consecutive bursts: the
/// quietest quarter by host steal (see steadiest_blocks).
constexpr std::size_t kRequestBlock = 125;
constexpr std::size_t kBurstBlock = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 31;
/// Full batches per replica preloaded at the end of every set-up.
constexpr int kWarmupBatches = 8;
/// Distinct request samples; request i carries sample i mod kPool.
constexpr int kPool = 512;
const char* const kTag = "classifier";

/// The bench/serve_throughput classifier at dispatch batch `batch`.
core::NetworkSpec classifier(std::int64_t batch) {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{batch, 3, kImage, kImage});
  int x = nb.conv_bn_relu("b1", in, 16, 3, 2);
  x = nb.conv_bn_relu("b2", x, 24, 3, 1);
  x = nb.conv_bn_relu("b3", x, 32, 3, 1);
  x = nb.global_avg_pool("gap", x);
  x = nb.fully_connected("fc", x, kClasses, /*bias=*/true);
  return nb.take();
}

/// Two SGD steps on one rank, so batchnorm has running statistics, then the
/// checkpoint every replica loads.
std::string train_checkpoint(std::uint64_t seed) {
  std::string blob;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec = classifier(kMaxBatch);
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), seed);
    Rng rng(seed, 99);
    const Shape4 in_shape = model.rt(0).out_shape;
    for (int step = 0; step < 2; ++step) {
      Tensor<float> x(in_shape);
      x.fill_uniform(rng, -1.0f, 1.0f);
      std::vector<int> labels;
      for (std::int64_t n = 0; n < in_shape.n; ++n) {
        labels.push_back(static_cast<int>(rng.next_below(kClasses)));
      }
      model.set_input(0, x);
      model.forward();
      model.loss_softmax(labels);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    }
    blob = core::serialize_checkpoint(model);
  });
  return blob;
}

/// Top-k of every pool sample from a single-rank model restored from the
/// same checkpoint: the bitwise reference for any batching and routing.
std::vector<std::vector<serve::Prediction>> oracle_topk(
    const std::string& blob, const std::vector<Tensor<float>>& pool) {
  std::vector<std::vector<serve::Prediction>> out;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec = classifier(kMaxBatch);
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), 1);
    std::istringstream in(blob);
    core::load_checkpoint(model, in);
    const Shape4 in_shape = model.rt(0).out_shape;
    for (std::size_t first = 0; first < pool.size(); first += kMaxBatch) {
      Tensor<float> batch(in_shape);
      batch.zero();
      const std::size_t n = std::min<std::size_t>(kMaxBatch, pool.size() - first);
      for (std::size_t k = 0; k < n; ++k) {
        std::copy(pool[first + k].data(),
                  pool[first + k].data() + pool[first + k].size(),
                  batch.data() + k * pool[first + k].size());
      }
      model.set_input(0, batch);
      model.forward(core::Mode::kInference);
      const Tensor<float> logits = model.gather_output(model.output_layer());
      for (std::size_t k = 0; k < n; ++k) {
        out.push_back(
            serve::topk_softmax(logits.data() + k * kClasses, kClasses, kTopK));
      }
    }
  });
  return out;
}

bool same_topk(const std::vector<serve::Prediction>& a,
               const std::vector<serve::Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].cls != b[k].cls || a[k].prob != b[k].prob) return false;  // bitwise
  }
  return true;
}

/// One request as the generator saw it.
struct Request {
  int sample = 0;
  double due = 0;     ///< when it was due (open phase) or first submit (burst)
  double submit = 0;  ///< when submit() was called
  bool shed = false;  ///< rejected at submit (OverloadedError)
  std::future<serve::InferenceResult> future;
  std::optional<serve::InferenceResult> result;  ///< after collect()
  std::exception_ptr error;                      ///< after collect()
  int span = -1;  ///< its "request" span in a traced run

  /// Wait for the response and keep it (or the error it carries).
  void collect() {
    if (shed) return;
    try {
      result = future.get();
    } catch (...) {
      error = std::current_exception();
    }
  }
  /// Completion time from the generator's clock: submit + server latency.
  double done() const { return submit + result->latency_seconds; }
};

/// A Router serving on its own World in a background thread.
class Fleet {
 public:
  Fleet(const core::Strategy& strategy, const std::string& blob,
        std::uint64_t seed) {
    serve::FleetModel fm;
    fm.tag = kTag;
    fm.spec = classifier(kMaxBatch);
    fm.strategy = strategy;
    fm.checkpoint = blob;
    fm.opts.batcher.max_batch = kMaxBatch;
    fm.opts.batcher.max_delay_us = 1000;
    fm.opts.batcher.max_queue = 1024;
    fm.opts.batcher.deadline_us = 0;
    fm.opts.top_k = kTopK;
    fm.seed = seed;
    fm.replicas = kReplicas;
    router_.add_model(std::move(fm));
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { join(); }

  void start() {
    thread_ = std::thread([this] {
      try {
        comm::World world(router_.total_ranks());
        world.run([this](comm::Comm& comm) { router_.serve(comm); });
      } catch (...) {
        error_ = std::current_exception();  // read after join()
      }
    });
  }
  /// Shut the router down, wait for every rank, and rethrow a failure.
  void stop() {
    join();
    if (error_) std::rethrow_exception(error_);
  }
  serve::Router& router() { return router_; }

 private:
  void join() {
    if (!thread_.joinable()) return;
    router_.shutdown();
    thread_.join();
  }

  serve::Router router_;
  std::exception_ptr error_;
  std::thread thread_;  // declared last: joins before the members it uses go
};

void submit(serve::Router& router, Request& req, Tensor<float> sample) {
  req.submit = now_s();
  try {
    req.future = router.submit(kTag, std::move(sample));
  } catch (const OverloadedError&) {
    req.shed = true;
  }
}

Tensor<float> copy_of(const Tensor<float>& t) {
  Tensor<float> c(t.shape());
  std::copy(t.data(), t.data() + t.size(), c.data());
  return c;
}

struct Totals {
  std::uint64_t requests = 0, batches = 0;
  std::vector<std::uint64_t> per_replica;
};
Totals totals(const serve::Router& router) {
  Totals t;
  const serve::RouterStats stats = router.stats();  // outlives the loop
  for (const auto& rep : stats.models.at(0).replicas) {
    t.requests += rep.requests;
    t.batches += rep.batches;
    t.per_replica.push_back(rep.requests);
  }
  return t;
}

/// Probes on one replica's grid: Model build and checkpoint load (the
/// Router does both inside serve()) and inference forwards at batch 1 and at
/// the dispatch batch.
struct GroupProbe {
  double build_ms = 0, load_ms = 0, fwd_b1_ms = 0, fwd_bmax_ms = 0;
};
GroupProbe probe_group(const std::string& blob, std::uint64_t seed) {
  GroupProbe out;
  std::vector<double> build, load;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    for (const std::int64_t batch : {std::int64_t{kMaxBatch}, std::int64_t{1}}) {
      const core::NetworkSpec spec = classifier(batch);
      const auto strategy = core::Strategy::sample_parallel(spec.size(), 1);
      std::optional<core::Model> model;
      for (int rep = 0; rep < kSetups; ++rep) {
        perf::clear_conv_plan_cache();
        model.reset();
        const double t0 = now_s();
        model.emplace(spec, comm, strategy, seed);
        const double t1 = now_s();
        std::istringstream in(blob);
        core::load_checkpoint(*model, in);
        const double t2 = now_s();
        if (batch == kMaxBatch) {
          build.push_back(t1 - t0);
          load.push_back(t2 - t1);
        }
      }
      Tensor<float> input(model->rt(0).out_shape);
      Rng rng(seed, 5);
      input.fill_uniform(rng);
      model->set_input(0, input);
      (batch == 1 ? out.fwd_b1_ms : out.fwd_bmax_ms) = probe_inference_ms(*model);
    }
  });
  out.build_ms = median(build) * 1e3;
  out.load_ms = median(load) * 1e3;
  return out;
}

/// Outcome of one request, from its collected response.
struct Outcome {
  bool ok = false;
  double latency = 0;  ///< due → completion, seconds
  double server = 0;   ///< submit → completion as the server measured it
};

}  // namespace

void run_serve_openloop(const RunConfig& cfg, Result& result, Tracer& tracer) {
  record_threads(result, kReplicas, kBudget, /*generator=*/1);
  parallel::set_num_threads(kBudget);
  const core::NetworkSpec spec = classifier(kMaxBatch);
  const auto strategy = core::Strategy::sample_parallel(spec.size(), 1);
  result.provenance["strategy"] = strategy.str();
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%d replicas x %d ranks, max_batch %d, max_delay 1000us, "
                "rate %.0f/s, limit %.0f ms",
                kReplicas, 1, kMaxBatch, kRate, kLatencyLimitMs);
  result.provenance["serving"] = buf;

  // Inputs from the seed: the checkpoint, the request samples and the
  // open-loop schedule (Poisson arrivals as offsets from the phase start).
  const std::string blob = train_checkpoint(cfg.seed);
  std::vector<Tensor<float>> pool;
  Rng sample_rng(cfg.seed, 4242);
  for (int i = 0; i < kPool; ++i) {
    pool.emplace_back(Shape4{1, 3, kImage, kImage});
    pool.back().fill_uniform(sample_rng, -1.0f, 1.0f);
  }
  // The bitwise reference for every response, made with the inputs: before
  // set-up and outside every timed region.
  const auto oracle = oracle_topk(blob, pool);
  const double open_s = cfg.seconds * kOpenShare;
  const double burst_s = cfg.seconds - open_s;
  std::vector<double> offsets;
  Rng gap_rng(cfg.seed, 171717);
  for (double t = 0;;) {
    t += -std::log(std::max(1e-12, 1.0 - gap_rng.uniform())) / kRate;
    if (t >= open_s) break;
    offsets.push_back(t);
  }

  // Set-up: Router + World start, each group's Model build and checkpoint
  // load, and warm-up batches (conv plans resolve on the first forward)
  // until every preloaded request has come back. It runs kSetups times; the
  // timed phases use the middle fleet, so set-ups sample the machine before
  // and after them.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    perf::clear_conv_plan_cache();
    const double t0 = now_s();
    auto fleet = std::make_unique<Fleet>(strategy, blob, cfg.seed);
    std::vector<Request> warm(kReplicas * kMaxBatch * kWarmupBatches);
    for (std::size_t r = 0; r < warm.size(); ++r) {
      submit(fleet->router(), warm[r], copy_of(pool[r % kPool]));
    }
    fleet->start();
    for (auto& w : warm) w.future.get();
    setup_s.push_back(now_s() - t0);
    tracer.add("setup", static_cast<std::int64_t>(setup_s.size() - 1), -1, t0,
               t0 + setup_s.back());
    return fleet;
  };
  for (int k = 0; k < kSetups / 2; ++k) set_up()->stop();
  const std::unique_ptr<Fleet> fleet = set_up();
  serve::Router& router = fleet->router();

  // Outcome of a request against the oracle (checked between bursts and
  // after the open phase, never inside a timed window).
  std::int64_t shed = 0, expired = 0, failed = 0, mismatched = 0, late = 0;
  const auto settle = [&](const Request& r) {
    Outcome o;
    if (r.shed) {
      ++shed;
    } else if (r.result) {
      o.server = r.result->latency_seconds;
      o.latency = r.done() - r.due;
      o.ok = same_topk(r.result->topk, oracle[static_cast<std::size_t>(r.sample)]);
      if (!o.ok) ++mismatched;
    } else {
      try {
        std::rethrow_exception(r.error);
      } catch (const DeadlineExceededError&) {
        ++expired;
      } catch (const std::exception&) {
        ++failed;
      }
    }
    return o;
  };

  // Phase 1: open loop on an absolute schedule. Traced runs record spans
  // for every other request; the first is recorded before submit, so its
  // cost lands in the request's latency.
  std::vector<Request> open(offsets.size());
  StealMeter open_steal;
  const Totals before_open = totals(router);
  const double t_open = now_s() + 0.01;
  for (std::size_t i = 0; i < open.size(); ++i) {
    Request& r = open[i];
    const auto id = static_cast<std::int64_t>(i);
    r.sample = static_cast<int>(i % kPool);
    r.due = t_open + offsets[i];
    Tensor<float> sample = copy_of(pool[static_cast<std::size_t>(r.sample)]);
    if (i % kRequestBlock == 0) open_steal.mark();
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(r.due))));
    if (tracer.on() && i % 2 == 1) r.span = tracer.add("request", id, -1, r.due, r.due);
    submit(router, r, std::move(sample));
    if (r.span >= 0) tracer.add("gen.late", id, r.span, r.due, r.submit);
  }
  open_steal.mark();
  for (auto& r : open) r.collect();
  const Totals after_open = totals(router);

  // Phase 2: bursts. All of a burst is due at once; its drain rate is the
  // fleet's capacity. Each burst is checked once it has drained.
  std::vector<double> capacity, submit_ms;
  std::int64_t burst_requests = 0, burst_misses = 0;
  StealMeter burst_steal;
  const double t_bursts = now_s();
  while (capacity.empty() || now_s() - t_bursts < burst_s) {
    if (capacity.size() % kBurstBlock == 0) burst_steal.mark();
    std::vector<Tensor<float>> samples;
    for (int i = 0; i < kBurst; ++i) {
      samples.push_back(copy_of(pool[(burst_requests + i) % kPool]));
    }
    std::vector<Request> burst(kBurst);
    const double t0 = now_s();
    for (int i = 0; i < kBurst; ++i) {
      burst[i].sample = static_cast<int>((burst_requests + i) % kPool);
      burst[i].due = t0;
      submit(router, burst[i], std::move(samples[i]));
    }
    submit_ms.push_back((now_s() - t0) * 1e3);
    double end = t0;
    for (Request& r : burst) {
      r.collect();
      if (r.result) end = std::max(end, r.done());
    }
    capacity.push_back(kBurst / (end - t0));
    tracer.add("burst", static_cast<std::int64_t>(capacity.size() - 1), -1, t0,
               end);
    for (const Request& r : burst) {
      if (!settle(r).ok) ++burst_misses;
    }
    burst_requests += kBurst;
  }
  burst_steal.mark();
  const Totals after_burst = totals(router);
  fleet->stop();
  for (int k = kSetups / 2 + 1; k < kSetups; ++k) set_up()->stop();
  const double rss_mb = peak_rss_mb();

  std::vector<double> lat, lat_untraced, lat_traced, server, gen_late;
  std::int64_t misses = burst_misses;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const Request& r = open[i];
    const Outcome o = settle(r);
    if (!o.ok) {
      ++misses;
      continue;
    }
    if (o.latency * 1e3 > kLatencyLimitMs) {
      ++late;
      ++misses;
    }
    lat.push_back(o.latency);
    (r.span >= 0 ? lat_traced : lat_untraced).push_back(o.latency);
    server.push_back(o.server);
    gen_late.push_back(r.submit - r.due);
    if (r.span >= 0) {
      tracer.set_end(r.span, r.due + o.latency);
      tracer.add("serve.server", static_cast<std::int64_t>(i), r.span, r.submit,
                 r.submit + o.server);
    }
  }
  result.attempted = static_cast<std::int64_t>(open.size()) + burst_requests;
  result.failed = misses;
  result.correct = mismatched == 0 && failed == 0;
  result.provenance["oracle_mismatches"] = std::to_string(mismatched);
  result.provenance["over_latency_limit"] = std::to_string(late);
  result.provenance["open_requests"] = std::to_string(open.size());
  result.provenance["burst_requests"] = std::to_string(burst_requests);
  std::snprintf(buf, sizeof buf, "%.4g", median(submit_ms));
  result.provenance["burst_submit_ms_p50"] = buf;

  const Summary s =
      summarize(steadiest_blocks(lat, kRequestBlock, open_steal.shares()));
  result.provenance["latency_tail_pct"] = std::to_string(s.tail_pct);
  result.provenance["latency_samples"] = std::to_string(s.n);
  result.provenance["latency_ms_p50_all_requests"] =
      std::to_string(median(lat) * 1e3);
  // Capacity: the median seconds per request of the steadier bursts.
  std::vector<double> per_request;
  for (const double c : capacity) per_request.push_back(1.0 / c);
  result.set("throughput_per_s",
             1.0 / median(steadiest_blocks(per_request, kBurstBlock,
                                           burst_steal.shares())),
             "1/s");
  result.provenance["throughput_per_s_all_bursts"] =
      std::to_string(median(capacity));
  result.set("latency_ms.p50", s.p50 * 1e3, "ms");
  result.set("latency_ms.tail", s.tail * 1e3, "ms");
  result.set("setup_s", median(setup_s), "s");
  result.set("ok_frac",
             double(result.attempted - misses) / double(result.attempted),
             "fraction");
  result.set("mem.peak_rss_mb", rss_mb, "MB");
  {
    // Activations of one replica at the dispatch batch.
    double act = 0;
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      act = double(core::Model(spec, comm, strategy, cfg.seed).activation_bytes());
    });
    result.set("mem.act_mb_per_rank", act / (1 << 20), "MB");
  }
  if (!tracer.on()) return;

  const Summary srv = summarize(server);
  const Summary late_s = summarize(gen_late);
  std::snprintf(buf, sizeof buf, "%.4g", late_s.tail * 1e3);
  result.provenance["gen_late_ms_tail"] = buf;
  const std::uint64_t open_batches = after_open.batches - before_open.batches;
  const std::uint64_t burst_reqs = after_burst.requests - after_open.requests;
  const std::uint64_t burst_batches = after_burst.batches - after_open.batches;
  std::uint64_t most = 0, total = 0;
  for (std::size_t r = 0; r < after_open.per_replica.size(); ++r) {
    const std::uint64_t n = after_open.per_replica[r] - before_open.per_replica[r];
    most = std::max(most, n);
    total += n;
  }
  result.provenance["open_batches"] = std::to_string(open_batches);
  result.set("serve.server_ms.p50", srv.p50 * 1e3, "ms");
  result.set("serve.server_ms.tail", srv.tail * 1e3, "ms");
  result.set("serve.batch_fill",
             burst_batches ? double(burst_reqs) / double(burst_batches) : 0.0,
             "requests");
  result.set("serve.replica_skew",
             total ? double(most) * kReplicas / double(total) : 0.0, "ratio");
  result.set("serve.shed", double(shed), "count");
  result.set("serve.expired", double(expired), "count");
  result.set("serve.failed", double(failed), "count");
  result.set("serve.gen_late_ms", late_s.p50 * 1e3, "ms");
  result.set("trace.overhead_frac", median(lat_traced) / median(lat_untraced),
             "ratio");

  const GroupProbe g = probe_group(blob, cfg.seed);
  result.set("core.model_build_ms", g.build_ms, "ms");
  result.set("serve.ckpt_load_ms", g.load_ms, "ms");
  result.set("serve.fwd_ms.b1", g.fwd_b1_ms, "ms");
  result.set("serve.fwd_ms.bmax", g.fwd_bmax_ms, "ms");

  const ConvShard shard = dominant_conv_shard(spec, strategy);
  const ConvRates rates = probe_kernels(spec, shard, kBudget, result);

  // One rank per replica: no link to fit and no halos to price.
  const Prediction pred = predict(spec, strategy, rates, {}, -1);
  result.set("perf.pred.fwd_ms", pred.inference_fwd * 1e3, "ms");
  result.set("perf.ratio.fwd",
             measured_over_predicted(g.fwd_bmax_ms, pred.inference_fwd), "ratio");
}

}  // namespace e2e
