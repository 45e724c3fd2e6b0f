#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "xfraud/common/rng.h"
#include "xfraud/nn/kernels.h"

namespace perfbench {

// ---- Tracer ---------------------------------------------------------------

namespace {
thread_local int64_t tls_current_span = -1;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name, int64_t request_id) {
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(
      SpanRec{name, id, tls_current_span, request_id, start, -1.0});
  tls_current_span = id;
  return id;
}

void Tracer::End(int64_t id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRec& rec = spans_[static_cast<size_t>(id)];
  rec.end = end;
  tls_current_span = rec.parent;
}

void Tracer::Sample(const char* name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(v);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRec& s : spans_) {
    if (s.end >= 0.0 && name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Tracer::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

int64_t Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = static_cast<int64_t>(spans_.size());
  for (const auto& [name, values] : samples_) {
    (void)name;
    n += static_cast<int64_t>(values.size());
  }
  return n;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  samples_.clear();
}

xfraud::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::app);
  if (!out) return xfraud::Status::IoError("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const SpanRec& s : spans_) {
    if (s.end < 0.0) continue;
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << std::llround((s.start - origin) * 1e6)
        << ",\"dur_us\":" << (s.end - s.start) * 1e6 << "}\n";
  }
  return out ? xfraud::Status::OK()
             : xfraud::Status::IoError("short write to " + path);
}

// ---- Statistics, pacing, resources ----------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

void WaitUntil(double due) {
  constexpr double kSpin = 300e-6;
  double now = Now();
  if (due - now > kSpin) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due - now - kSpin));
  }
  while (Now() < due) {
  }
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration) {
  xfraud::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ChildPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t SelfMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_minflt);
}

xfraud::data::GeneratorConfig ScaleConfig(const std::string& scale,
                                          uint64_t seed) {
  using xfraud::data::TransactionGenerator;
  xfraud::data::GeneratorConfig config =
      scale == "large" ? TransactionGenerator::SimLarge()
                       : TransactionGenerator::SimSmall();
  if (scale == "tiny") {
    config.num_buyers = 300;
    config.num_fraud_rings = 8;
    config.num_stolen_cards = 10;
  }
  config.seed = seed;
  return config;
}

// ---- Kernels --------------------------------------------------------------

namespace {

/// Median seconds per call of `fn`, calling it for about `seconds`.
template <typename Fn>
double SecondsPerCall(double seconds, Fn fn) {
  fn();  // warm-up: page in the operands
  std::vector<double> per_call;
  const double stop = Now() + seconds;
  do {
    const double start = Now();
    fn();
    per_call.push_back(Now() - start);
  } while (Now() < stop || per_call.size() < 5);
  return Median(per_call);
}

}  // namespace

void MeasureGemms(const GemmShape& shape, double seconds, Outcome* out) {
  using xfraud::nn::Tensor;
  namespace kernels = xfraud::nn::kernels;
  xfraud::Rng rng(99);
  const Tensor x = Tensor::Uniform(shape.rows, shape.in, 1.0f, &rng);
  const Tensor w = Tensor::Uniform(shape.in, shape.out, 1.0f, &rng);
  const Tensor g = Tensor::Uniform(shape.rows, shape.out, 1.0f, &rng);
  Tensor y(shape.rows, shape.out);
  Tensor dw(shape.in, shape.out);
  Tensor dx(shape.rows, shape.in);
  const double flops = 2.0 * static_cast<double>(shape.rows) *
                       static_cast<double>(shape.in) *
                       static_cast<double>(shape.out);
  const double each = seconds / 3.0;
  const double gemm = SecondsPerCall(each, [&] { kernels::Gemm(x, w, &y); });
  const double transa =
      SecondsPerCall(each, [&] { kernels::GemmTransAAdd(x, g, &dw); });
  const double transb =
      SecondsPerCall(each, [&] { kernels::GemmTransBAdd(g, w, &dx); });
  out->layer["nn.kernels.gemm_gflops"] = {flops / gemm / 1e9, "GFLOP/s"};
  out->layer["nn.kernels.gemm_transa_gflops"] = {flops / transa / 1e9,
                                                 "GFLOP/s"};
  out->layer["nn.kernels.gemm_transb_gflops"] = {flops / transb / 1e9,
                                                 "GFLOP/s"};
  out->Report("nn.kernels.shape_rows", static_cast<double>(shape.rows),
              "count");
}

// ---- Span-derived layer metrics -------------------------------------------

std::map<std::string, Value> LayerMetricsFromTrace(const Tracer& tracer) {
  std::map<std::string, Value> out;
  auto span = [&](const char* span_name, const char* metric, double scale,
                  const char* unit) {
    std::vector<double> d = tracer.Durations(span_name);
    if (!d.empty()) out[metric] = {Median(d) * scale, unit};
  };
  auto sample = [&](const char* name, const char* unit) {
    std::vector<double> s = tracer.Samples(name);
    if (!s.empty()) out[name] = {Median(s), unit};
  };
  span("sample.next", "sample.batch_ms", 1e3, "ms");
  sample("sample.subgraph_nodes", "count");
  span("core.forward", "core.forward_ms", 1e3, "ms");
  span("nn.backward", "nn.backward_ms", 1e3, "ms");
  span("nn.optim", "nn.optim_ms", 1e3, "ms");
  sample("nn.allocs_per_step", "count");
  sample("nn.alloc_mb_per_step", "MiB");
  span("train.step", "train.step_ms", 1e3, "ms");
  span("dist.allreduce", "dist.allreduce_ms", 1e3, "ms");
  sample("dist.comm_s_per_epoch", "s");
  sample("dist.compute_s_per_epoch", "s");
  sample("dist.sample_s_per_epoch", "s");
  span("kv.load_batch", "kv.load_batch_ms", 1e3, "ms");
  span("kv.get", "kv.get_us", 1e6, "us");
  sample("kv.gets_per_request", "count");
  span("serve.inproc_score", "serve.inproc_score_ms", 1e3, "ms");
  span("serve.router_score", "serve.router_score_ms", 1e3, "ms");
  span("serve.supervisor_start", "serve.supervisor_start_s", 1.0, "s");
  if (out.count("serve.inproc_score_ms") &&
      out.count("serve.router_score_ms")) {
    out["serve.wire_ms"] = {out["serve.router_score_ms"].value -
                                out["serve.inproc_score_ms"].value,
                            "ms"};
  }
  span("stream.append", "stream.append_us", 1e6, "us");
  span("stream.publish", "stream.publish_ms", 1e3, "ms");
  span("stream.open_view", "stream.open_view_us", 1e6, "us");
  sample("stream.compactions", "count");
  std::vector<double> late = tracer.Samples("loadgen.late_ms");
  if (!late.empty()) {
    out["loadgen.late_ms_p99"] = {Percentile(late, 0.99), "ms"};
  }
  return out;
}

}  // namespace perfbench
