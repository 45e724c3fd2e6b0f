#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the benchmark binary: the result a workload hands back,
// the span recorder of the traced run, and the statistics and pacing
// helpers every workload uses. Everything here is benchmark-side; the
// library under test gets no extra instrumentation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "xfraud/common/status.h"
#include "xfraud/data/generator.h"

namespace perfbench {

/// Wall clock in seconds (steady_clock); every timing in the benchmark uses
/// it, never CPU time.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Value {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::vector<std::string> failures;  // correctness-gate failures
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics under their BENCHMARK.json names.
  std::map<std::string, Value> e2e;
  /// Workload-specific figures printed by name and unit (the percentile
  /// sample counts, the quality figures, the ingest visibility figures).
  std::vector<std::pair<std::string, Value>> report;
  /// Per-layer values set directly (counts, rates); span-derived ones are
  /// computed from the Tracer.
  std::map<std::string, Value> layer;

  void Fail(const std::string& why) { failures.push_back(why); }
  void Report(const std::string& name, double v, const std::string& unit) {
    report.push_back({name, Value{v, unit}});
  }
};

/// In-memory span recorder of the traced run. Spans are named after the
/// public call they wrap ("<module>.<call>"); each records start, end, the
/// enclosing span on the same thread, and a request id where one exists.
/// Samples are plain named observations (sizes, counts, lateness).
class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  int64_t Begin(const char* name, int64_t request_id);
  void End(int64_t id);
  void Sample(const char* name, double v);

  /// Durations in seconds of every finished span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  std::vector<double> Samples(const std::string& name) const;
  int64_t events() const;
  /// Forgets everything recorded (between a workload and its companions).
  void Clear();
  /// Writes the spans as JSON lines (name, id, parent, request, start/dur
  /// in microseconds from the first span).
  xfraud::Status WriteJsonLines(const std::string& path) const;

 private:
  struct SpanRec {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t request;
    double start;
    double end;
  };
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span; records nothing unless the tracer is on.
class Span {
 public:
  explicit Span(const char* name, int64_t request_id = -1)
      : id_(Tracer::Get().on() ? Tracer::Get().Begin(name, request_id) : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

inline void TraceSample(const char* name, double v) {
  if (Tracer::Get().on()) Tracer::Get().Sample(name, v);
}

/// Heap allocation counter. Only the traced binary replaces operator new;
/// in the timed binary these report false / zero.
struct AllocCounts {
  int64_t count = 0;
  int64_t bytes = 0;
};
bool AllocCountingAvailable();
void SetAllocCounting(bool on);
AllocCounts ReadAllocCounts();

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Sleeps until `due` (seconds on Now()'s clock), spinning through the last
/// 300 microseconds so an open-loop generator fires on time.
void WaitUntil(double due);

/// Poisson arrival times (seconds from 0) at `rate` per second until
/// `duration`, from a seeded stream.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration);

/// Peak resident set of this process, and of the largest reaped child, in
/// MiB (getrusage).
double SelfPeakRssMb();
double ChildPeakRssMb();
/// Minor page faults this process has taken so far (getrusage).
int64_t SelfMinorFaults();

/// Generator configuration for a named scale ("small", "large", "tiny"),
/// reseeded from the workload seed.
xfraud::data::GeneratorConfig ScaleConfig(const std::string& scale,
                                          uint64_t seed);

/// Records the kernel shapes the workload's batches produce: rows of the
/// input projection (the sampled subgraph) and the layer widths.
struct GemmShape {
  int64_t rows = 0;
  int64_t in = 0;
  int64_t out = 0;
};

/// Times nn::kernels::Gemm / GemmTransAAdd / GemmTransBAdd at `shape`
/// (input-projection forward and its two backward GEMMs) and sets the
/// nn.kernels.* GFLOP/s values, flops counted as 2·m·n·k.
void MeasureGemms(const GemmShape& shape, double seconds, Outcome* out);

/// Per-layer metrics derivable from what the tracer recorded.
std::map<std::string, Value> LayerMetricsFromTrace(const Tracer& tracer);

/// Runs `build` (which returns a std::unique_ptr to the workload's state,
/// or null after recording a failure) `reps` times, destroying each state
/// before building the next, and returns the last one. `*median_s` is the
/// median wall time of one build — the workload's setup_s.
template <typename Build>
auto SetUpRepeatedly(int reps, Build build, double* median_s)
    -> decltype(build()) {
  decltype(build()) state;
  std::vector<double> secs;
  for (int i = 0; i < std::max(1, reps); ++i) {
    state.reset();
    const double start = Now();
    state = build();
    secs.push_back(Now() - start);
    if (state == nullptr) break;
  }
  *median_s = Median(secs);
  return state;
}

/// Workload entry points. `smoke` shrinks sizes for the self-test; the
/// sizes are otherwise fixed per workload and printed on its `config` line.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// True while a companion workload runs at smoke size inside a traced
  /// run (see main.cc); companions report layers only.
  bool companion = false;
  /// Self-test only: every correctness gate perturbs its expected value (an
  /// AUC floor above 1, a reference score moved by one ulp), so it must fail.
  bool corrupt_expected = false;
};

/// The score a gate expects: `score`, moved by one ulp when the self-test
/// breaks the gates on purpose.
inline double Expected(const RunContext& ctx, double score) {
  return ctx.corrupt_expected ? std::nextafter(score, 2.0) : score;
}

/// Prints a workload's fixed sizes as one "config <workload> k=v ..." line.
template <typename... KeyValues>
void PrintConfig(const std::string& workload, const KeyValues&... kv) {
  std::cout << "config " << workload;
  int i = 0;
  ((std::cout << (i++ % 2 == 0 ? " " : "=") << kv), ...);
  std::cout << "\n";
}

Outcome RunTrain(const RunContext& ctx);
Outcome RunDdp(const RunContext& ctx);
Outcome RunServe(const RunContext& ctx);
Outcome RunScore(const RunContext& ctx);
Outcome RunIngest(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
