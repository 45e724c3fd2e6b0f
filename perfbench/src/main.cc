// The benchmark binary. Usage:
//
//   perfbench --workload <train|ddp|serve|score|ingest> --seed N --seconds S
//             --trace <0|1> [--smoke 1] [--corrupt-expected 1]
//
// --trace 0 (the timed binary) prints the end-to-end metrics; --trace 1
// (the traced binary, with its counting operator new) prints the per-layer
// metrics. Human-readable lines go first; the last stdout line is the JSON
// result. Exits nonzero when a correctness gate fails; --corrupt-expected 1
// (self-test only) breaks every gate's expected value so that it must.

#include <malloc.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json (the self-test checks both ways).
const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},       {"txn_per_s", "txn/s"},
      {"p50_ms", "ms"},       {"tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"sample.batch_ms", "ms"},
      {"sample.subgraph_nodes", "count"},
      {"core.forward_ms", "ms"},
      {"nn.backward_ms", "ms"},
      {"nn.optim_ms", "ms"},
      {"nn.allocs_per_step", "count"},
      {"nn.alloc_mb_per_step", "MiB"},
      {"nn.kernels.gemm_gflops", "GFLOP/s"},
      {"nn.kernels.gemm_transa_gflops", "GFLOP/s"},
      {"nn.kernels.gemm_transb_gflops", "GFLOP/s"},
      {"train.step_ms", "ms"},
      {"dist.comm_s_per_epoch", "s"},
      {"dist.compute_s_per_epoch", "s"},
      {"dist.sample_s_per_epoch", "s"},
      {"dist.allreduce_ms", "ms"},
      {"kv.load_batch_ms", "ms"},
      {"kv.gets_per_request", "count"},
      {"kv.get_us", "us"},
      {"serve.inproc_score_ms", "ms"},
      {"serve.router_score_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.supervisor_start_s", "s"},
      {"stream.append_us", "us"},
      {"stream.publish_ms", "ms"},
      {"stream.compactions", "count"},
      {"stream.open_view_us", "us"},
      {"loadgen.late_ms_p99", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

struct WorkloadDef {
  const char* name;
  Outcome (*run)(const RunContext&);
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"train", RunTrain}, {"ddp", RunDdp},       {"serve", RunServe},
      {"score", RunScore}, {"ingest", RunIngest},
  };
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <train|ddp|serve|score|ingest> "
               "--seed N --seconds S --trace <0|1> [--smoke 1] "
               "[--corrupt-expected 1]\n";
  return 2;
}

/// Seconds one span (begin + end) and one counted allocation add, measured
/// on this host at the start of the traced run.
struct TraceCost {
  double per_span = 0.0;
  double per_alloc = 0.0;
};

TraceCost CalibrateTracer() {
  TraceCost cost;
  Tracer& tracer = Tracer::Get();
  constexpr int kSpans = 20000;
  tracer.SetOn(true);
  double start = Now();
  for (int i = 0; i < kSpans; ++i) {
    Span span("calibration");
  }
  cost.per_span = (Now() - start) / kSpans;
  tracer.Clear();
  if (AllocCountingAvailable()) {
    constexpr int kAllocs = 200000;
    auto churn = [] {
      const double t = Now();
      for (int i = 0; i < kAllocs; ++i) {
        auto* p = new std::string(32, 'x');
        delete p;
      }
      return Now() - t;
    };
    const double plain = churn();
    SetAllocCounting(true);
    const double counted = churn();
    SetAllocCounting(false);
    cost.per_alloc = std::max(0.0, (counted - plain) / kAllocs);
  }
  return cost;
}

std::string JsonNumber(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

void PrintResult(bool correct, const Outcome& out,
                 const std::vector<MetricSpec>& specs,
                 const std::map<std::string, Value>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end()) continue;
    std::cout << (first ? "" : ", ") << "\"" << spec.name
              << "\": {\"value\": " << JsonNumber(it->second.value)
              << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

/// Fixes glibc's allocator heuristics for the run (the forked ranks and
/// shard servers inherit them). glibc starts with blocks above 128 KiB as
/// fresh mappings, then raises that threshold to the largest block freed so
/// far, and trims the heap top whenever enough of it is free. Both depend
/// on the allocation history: under them the 640-batch forward took from
/// none to 28K page faults per batch, depending on the seed and on what ran
/// before it, and its time followed. Here the threshold stays at glibc's
/// initial 128 KiB, so every large tensor is still a fresh mapping that pays
/// its page faults, the cost a tensor arena would remove; only the heap-top
/// trimming is turned off.
void FixAllocatorHeuristics() {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int Main(int argc, char** argv) {
  FixAllocatorHeuristics();
  RunContext ctx;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        ctx.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = ctx.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        ctx.trace = value == "1";
        have_trace = true;
      } else if (flag == "--smoke") {
        ctx.smoke = value == "1";
      } else if (flag == "--corrupt-expected") {
        ctx.corrupt_expected = value == "1";
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage(
        "--workload, --seed, --seconds (> 0) and --trace are required");
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to run a build with assertions on "
               "(NDEBUG unset); build with CMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to run a '" << PERFBENCH_BUILD_TYPE
              << "' build; build with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (ctx.trace != AllocCountingAvailable()) {
    std::cerr << "perfbench: --trace " << (ctx.trace ? 1 : 0)
              << " must run the " << (ctx.trace ? "traced" : "timed")
              << " binary\n";
    return 2;
  }
  const WorkloadDef* def = FindWorkload(ctx.workload);
  if (def == nullptr) return Usage("unknown workload " + ctx.workload);
  std::cout << "workload " << ctx.workload << " seed " << ctx.seed
            << " seconds " << ctx.seconds << " trace " << ctx.trace
            << (ctx.smoke ? " smoke" : "")
            << (ctx.corrupt_expected ? " corrupt-expected" : "") << "\n";

  TraceCost cost;
  if (ctx.trace) cost = CalibrateTracer();
  Tracer::Get().SetOn(ctx.trace);
  const double start = Now();
  Outcome out;
  try {
    out = def->run(ctx);
  } catch (const std::exception& e) {
    // A library CheckError.
    std::cerr << "perfbench: " << ctx.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }
  const double wall = Now() - start;

  for (const auto& [name, v] : out.report) {
    std::cout << "  " << std::left << std::setw(24) << name << " "
              << std::setprecision(6) << v.value << " " << v.unit << "\n";
  }
  std::map<std::string, Value> metrics;
  const std::vector<MetricSpec>* specs = &EndToEndSpecs();
  if (!ctx.trace) {
    metrics = out.e2e;
  } else {
    specs = &PerLayerSpecs();
    metrics = LayerMetricsFromTrace(Tracer::Get());
    for (const auto& [name, v] : out.layer) metrics[name] = v;
    const double overhead =
        static_cast<double>(Tracer::Get().events()) * cost.per_span +
        static_cast<double>(ReadAllocCounts().count) * cost.per_alloc;
    metrics["trace.overhead_pct"] = {100.0 * overhead / wall, "%"};
    (void)Tracer::Get().WriteJsonLines("spans-" + ctx.workload + ".jsonl");
    // Layers this workload does not call come from smoke-size runs of the
    // workloads that do (see README.md, "Traced run").
    for (const WorkloadDef& other : Workloads()) {
      bool missing = false;
      for (const MetricSpec& spec : *specs) {
        missing = missing || metrics.count(spec.name) == 0;
      }
      if (!missing) break;
      if (&other == def) continue;
      Tracer::Get().Clear();
      RunContext companion;
      companion.workload = other.name;
      companion.seed = ctx.seed;
      companion.seconds = 2.0;
      companion.trace = true;
      companion.smoke = true;
      companion.companion = true;
      Outcome extra = other.run(companion);
      for (const std::string& f : extra.failures) {
        out.Fail(std::string("companion ") + other.name + ": " + f);
      }
      std::map<std::string, Value> layer =
          LayerMetricsFromTrace(Tracer::Get());
      for (const auto& [name, v] : extra.layer) layer[name] = v;
      for (const auto& [name, v] : layer) metrics.insert({name, v});
    }
    Tracer::Get().SetOn(false);
  }

  bool correct = out.failures.empty();
  for (const std::string& f : out.failures) {
    std::cerr << "perfbench: correctness gate failed: " << f << "\n";
  }
  for (const MetricSpec& spec : *specs) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end() || !std::isfinite(it->second.value)) {
      std::cerr << "perfbench: metric " << spec.name << " was not measured\n";
      correct = false;
    } else {
      std::cout << "metric " << spec.name << " = "
                << std::setprecision(6) << it->second.value << " "
                << spec.unit << "\n";
    }
  }
  if (out.attempted < 1) {
    std::cerr << "perfbench: no operation was attempted\n";
    correct = false;
  }
  std::cout << std::flush;
  PrintResult(correct, out, *specs, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
