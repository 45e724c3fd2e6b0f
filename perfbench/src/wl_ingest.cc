// Workload `ingest`: streaming writes beside pinned-epoch reads. One
// closed-loop writer appends transactions through stream::GraphIngestor
// and publishes an epoch every `publish_every` of them; the background
// compactor runs at a fixed interval; reader threads pin the latest epoch
// (StreamingTopology::OpenView) and score a transaction at it on an
// open-loop schedule. Afterwards the sampled reads are replayed at their
// still-pinned epochs (bit-identical), and the directory is reopened to
// time recovery.

#include <unistd.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "xfraud/xfraud.h"

namespace perfbench {
namespace {

using namespace xfraud;  // NOLINT: benchmark-local brevity

struct Pinned {
  int64_t request_id = 0;
  int32_t node = 0;
  double score = 0.0;
  stream::GraphView view;
};

}  // namespace

/// Sizes of `ingest`, fixed except at smoke size.
struct IngestSizes {
  int buyers;
  int feature_dim = 16;
  int shards = 2;
  int replicas = 2;
  size_t preload;
  size_t publish_every = 50;
  double compact_interval_s;
  int readers = 2;
  double read_rate = 200;
  size_t audit = 64;
  /// An audited read stays pinned until this many newer epochs are
  /// published, then is re-scored and released, so the compactor's GC floor
  /// keeps advancing behind the audit trail.
  uint64_t audit_lag = 20;
  int setup_reps;
};

IngestSizes IngestSizesFor(const RunContext& ctx) {
  IngestSizes s;
  s.buyers = ctx.smoke ? 8000 : 40000;
  s.preload = ctx.smoke ? 200 : 2000;
  s.compact_interval_s = ctx.smoke ? 0.5 : 8;
  s.setup_reps = ctx.smoke ? 1 : 3;
  PrintConfig(ctx.workload, "buyers", s.buyers, "feature_dim", s.feature_dim,
              "shards", s.shards, "replicas", s.replicas, "preload", s.preload,
              "publish_every", s.publish_every, "compact_interval_s",
              s.compact_interval_s, "readers", s.readers, "read_rate",
              s.read_rate, "audit", s.audit, "audit_lag", s.audit_lag,
              "setup_reps", s.setup_reps);
  return s;
}

namespace {

/// The ingest workload's set-up: generated records, the topology with the
/// preload published, the model and scoring service, and the compactor
/// running. The destructor stops the compactor and removes the directory.
struct IngestState {
  std::vector<graph::TransactionRecord> records;
  stream::StreamingOptions options;
  std::unique_ptr<stream::StreamingTopology> topo;
  std::vector<int32_t> read_nodes;
  std::unique_ptr<core::XFraudDetector> model;
  std::unique_ptr<serve::ScoringService> service;

  IngestState() = default;
  IngestState(const IngestState&) = delete;
  IngestState& operator=(const IngestState&) = delete;
  ~IngestState() {
    if (topo != nullptr) topo->ingestor()->StopCompactor();
    service.reset();
    topo.reset();
    if (!options.dir.empty()) std::filesystem::remove_all(options.dir);
  }
};

std::unique_ptr<IngestState> SetUpIngest(const RunContext& ctx,
                                         const IngestSizes& sizes, int rep,
                                         Outcome* out) {
  auto st = std::make_unique<IngestState>();
  data::GeneratorConfig config = ScaleConfig("small", ctx.seed);
  config.num_buyers = sizes.buyers;
  config.feature_dim = sizes.feature_dim;
  st->records = data::TransactionGenerator(config).GenerateRecords();
  st->options.dir =
      "ingest-" + std::to_string(::getpid()) + "-" + std::to_string(rep);
  std::filesystem::remove_all(st->options.dir);
  st->options.num_shards = sizes.shards;
  st->options.num_replicas = sizes.replicas;
  auto opened = stream::StreamingTopology::Open(st->options);
  if (!opened.ok()) {
    out->Fail("StreamingTopology::Open: " + opened.status().ToString());
    return nullptr;
  }
  st->topo = std::move(opened).value();
  stream::GraphIngestor* ingestor = st->topo->ingestor();

  // Preload: the readers' transactions, published before timing starts.
  for (size_t i = 0; i < sizes.preload && i < st->records.size(); ++i) {
    Status s = ingestor->Append(st->records[i]);
    if (!s.ok()) {
      out->Fail("preload Append: " + s.ToString());
      return nullptr;
    }
    st->read_nodes.push_back(ingestor->TxnNode(st->records[i].txn_id));
  }
  if (Result<uint64_t> e = ingestor->PublishEpoch(); !e.ok()) {
    out->Fail("preload PublishEpoch: " + e.status().ToString());
    return nullptr;
  }
  core::DetectorConfig detector;
  detector.feature_dim = sizes.feature_dim;
  Rng model_rng(ctx.seed);
  st->model = std::make_unique<core::XFraudDetector>(detector, &model_rng);
  serve::ServiceOptions service_options;
  service_options.deadline_s = 0.0;
  st->service = std::make_unique<serve::ScoringService>(
      st->model.get(), st->topo->features(), service_options);
  ingestor->StartCompactor(Clock::Real(), sizes.compact_interval_s, nullptr);
  return st;
}

}  // namespace

Outcome RunIngest(const RunContext& ctx) {
  const IngestSizes sizes = IngestSizesFor(ctx);
  Outcome out;
  double setup_s = 0.0;
  int rep = 0;
  std::unique_ptr<IngestState> state = SetUpRepeatedly(
      sizes.setup_reps, [&] { return SetUpIngest(ctx, sizes, rep++, &out); },
      &setup_s);
  if (state == nullptr) return out;
  const std::vector<graph::TransactionRecord>& records = state->records;
  const std::vector<int32_t>& read_nodes = state->read_nodes;
  stream::StreamingTopology* topo = state->topo.get();
  stream::GraphIngestor* ingestor = topo->ingestor();
  core::XFraudDetector& model = *state->model;
  serve::ScoringService& service = *state->service;

  // Readers: open loop, arrival i to reader i % readers.
  const int readers = sizes.readers;
  const std::vector<double> due = PoissonSchedule(
      Rng::StreamSeed(ctx.seed, 0x52454144), sizes.read_rate, ctx.seconds);
  const size_t audit_every = std::max<size_t>(1, due.size() / sizes.audit);
  std::mutex mu;
  std::vector<double> read_latency;
  std::vector<double> late;
  std::deque<Pinned> pinned;  // guarded by mu, oldest first
  int64_t audited = 0;
  int64_t read_failed = 0;
  std::string first_error;
  const double t0 = Now() + 0.01;
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (size_t i = static_cast<size_t>(r); i < due.size();
           i += static_cast<size_t>(readers)) {
        const double at = t0 + due[i];
        WaitUntil(at);
        const double lateness = Now() - at;
        TraceSample("loadgen.late_ms", lateness * 1e3);
        const int64_t id = static_cast<int64_t>(i);
        const int32_t node = read_nodes[Rng::StreamSeed(ctx.seed, i) %
                                        read_nodes.size()];
        Result<stream::GraphView> view = [&] {
          Span span("stream.open_view", id);
          return topo->OpenView();
        }();
        Result<serve::ScoreResponse> resp =
            view.ok() ? [&] {
              Span span("serve.stream_score", id);
              return service.ScoreAt(id, node, 0.0, view.value().epoch());
            }()
                      : Result<serve::ScoreResponse>(view.status());
        const double done = Now();
        if (resp.ok() && Tracer::Get().on() && i % 4 == 0) {
          Rng rng(Rng::StreamSeed(id, 0x4b56));
          Result<graph::MiniBatch> batch = [&] {
            Span span("kv.load_batch", id);
            return view.value().LoadBatch({node}, 2, 12, &rng);
          }();
          if (batch.ok()) {
            Span span("core.forward", id);
            (void)model.Forward(batch.value(), core::ForwardOptions{});
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        late.push_back(lateness);
        if (!resp.ok()) {
          ++read_failed;
          if (first_error.empty()) first_error = resp.status().ToString();
          read_latency.push_back(std::numeric_limits<double>::infinity());
          continue;
        }
        read_latency.push_back(done - at);
        if (i % audit_every == 0) {
          pinned.push_back(
              {id, node, resp.value().score, std::move(view).value()});
        }
      }
    });
  }

  // Replay audit: a sampled read re-scores bit-identically at its
  // still-pinned epoch after the writer and compactor moved past it.
  auto audit = [&](uint64_t older_than) {
    for (;;) {
      Pinned s;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (pinned.empty() || pinned.front().view.epoch() >= older_than) {
          return;
        }
        s = std::move(pinned.front());
        pinned.pop_front();
      }
      auto again = service.ScoreAt(s.request_id, s.node, 0.0, s.view.epoch());
      if (!again.ok() || Expected(ctx, again.value().score) != s.score) {
        out.Fail("replay audit: request " + std::to_string(s.request_id) +
                 " at epoch " + std::to_string(s.view.epoch()) +
                 " did not reproduce");
      }
      ++audited;
    }
  };
  const uint64_t audit_lag = sizes.audit_lag;

  // Writer: closed loop until the read schedule ends. Visibility of a
  // transaction = from the start of its Append to the return of the
  // PublishEpoch that made it readable.
  const size_t publish_every = sizes.publish_every;
  std::vector<double> visible;
  std::vector<double> append_start;
  size_t next = sizes.preload;
  int64_t appended = 0;
  int64_t publishes = 0;
  const double stop = t0 + ctx.seconds;
  const double write_start = Now();
  while (next < records.size()) {
    const bool last = Now() >= stop || next + 1 == records.size();
    append_start.push_back(Now());
    Status s = [&] {
      Span span("stream.append");
      return ingestor->Append(records[next]);
    }();
    ++next;
    ++out.attempted;
    if (!s.ok()) {
      ++out.failed;
      out.Fail("Append: " + s.ToString());
      break;
    }
    ++appended;
    if (append_start.size() < publish_every && !last) continue;
    Result<uint64_t> epoch = [&] {
      Span span("stream.publish");
      return ingestor->PublishEpoch();
    }();
    const double published = Now();
    ++out.attempted;
    ++publishes;
    if (!epoch.ok()) {
      ++out.failed;
      out.Fail("PublishEpoch: " + epoch.status().ToString());
      break;
    }
    for (double a : append_start) visible.push_back(published - a);
    append_start.clear();
    if (epoch.value() > audit_lag) audit(epoch.value() - audit_lag);
    if (last) break;
  }
  const double write_wall = Now() - write_start;
  if (next >= records.size()) {
    out.Fail("the writer ran out of generated transactions; raise buyers");
  }
  for (std::thread& t : threads) t.join();
  ingestor->StopCompactor();
  TraceSample("stream.compactions",
              static_cast<double>(ingestor->compaction_cycles()));

  audit(std::numeric_limits<uint64_t>::max());
  out.Report("audited_reads", static_cast<double>(audited), "count");
  if (audited == 0) out.Fail("no read was audited");

  out.attempted += static_cast<int64_t>(read_latency.size());
  out.failed += read_failed;
  if (read_failed > 0) out.Fail("reads failed, first: " + first_error);
  const double txn_per_s = static_cast<double>(appended) / write_wall;
  const double p50 = Percentile(read_latency, 0.50) * 1e3;
  const double p90 = Percentile(read_latency, 0.90) * 1e3;
  const double p99 = Percentile(read_latency, 0.99) * 1e3;
  out.e2e["txn_per_s"] = {txn_per_s, "txn/s"};
  out.e2e["p50_ms"] = {p50, "ms"};
  // p90, like every workload's tail: the p99 (the longest compaction
  // stall) moved by a third between runs.
  out.e2e["tail_ms"] = {p90, "ms"};
  out.Report("ingest_txn_per_s", txn_per_s, "txn/s");
  out.Report("score_p50_ms", p50, "ms");
  out.Report("score_p90_ms", p90, "ms");
  out.Report("score_p99_ms", p99, "ms");
  out.Report("score_samples", static_cast<double>(read_latency.size()),
             "count");
  out.Report("visible_p50_ms", Percentile(visible, 0.50) * 1e3, "ms");
  out.Report("visible_p99_ms", Percentile(visible, 0.99) * 1e3, "ms");
  out.Report("visible_samples", static_cast<double>(visible.size()), "count");
  out.Report("epochs_published", static_cast<double>(publishes), "count");
  out.Report("compactions",
             static_cast<double>(ingestor->compaction_cycles()), "count");
  out.Report("loadgen_late_ms_p99", Percentile(late, 0.99) * 1e3, "ms");

  // Recovery: reopen the written grid and check it reattached to the same
  // graph.
  const int64_t nodes_before = ingestor->num_nodes();
  const uint64_t epoch_before = topo->epochs()->published_epoch();
  state->service.reset();
  state->topo.reset();
  const double reopen_start = Now();
  auto reopened = stream::StreamingTopology::Open(state->options);
  const double recover_s = Now() - reopen_start;
  if (!reopened.ok()) {
    out.Fail("reopen: " + reopened.status().ToString());
  } else if (reopened.value()->ingestor()->num_nodes() != nodes_before ||
             reopened.value()->epochs()->published_epoch() != epoch_before) {
    out.Fail("reopen recovered a different graph");
  }
  out.Report("recover_s", recover_s, "s");
  if (reopened.ok()) reopened.value().reset();
  state.reset();
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["peak_rss_mb"] = {SelfPeakRssMb(), "MiB"};
  return out;
}

}  // namespace perfbench
