// The end-to-end serving benchmark: starts the real net::Server over a
// fleet_serve::FleetService on loopback, drives it from the benchmark's own
// single-threaded load generator, checks every reply, and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run it through perfbench/run.py, which builds it first.
//
//   stage_perfbench --workload fleet_churn --seed 1 --seconds 40 --trace 0
//       --rate 800 --depth 4 [--small]
//       [--inject none|corrupt|drop] [--scratch DIR]
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "stage/common/stats.h"
#include "stage/metrics/error_metrics.h"
#include "stage/net/json.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace net = stage::net;
namespace obs = stage::obs;
using stage::core::PredictionSource;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double rate = 0.0;
  int depth = 0;
  bool small = false;
  Inject inject = Inject::kNone;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--rate") {
      args->rate = std::atof(value.c_str());
    } else if (flag == "--depth") {
      args->depth = std::atoi(value.c_str());
    } else if (flag == "--inject") {
      if (value == "corrupt") {
        args->inject = Inject::kCorrupt;
      } else if (value == "drop") {
        args->inject = Inject::kDrop;
      } else if (value != "none") {
        return false;
      }
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) && args->rate > 0.0 &&
         args->depth >= 1;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : stage::Quantile(values, 0.5);
}

double Q(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : stage::Quantile(values, q);
}

// Starts a new high-water mark of resident memory at the current resident
// size, so the peak covers serving and not set-up. Free heap pages go back
// to the kernel first; set-up frees far more than serving allocates.
void ResetPeakRss() {
  malloc_trim(0);
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr || std::fputs("5", refs) < 0) {
    std::fprintf(stderr, "perfbench: cannot reset the resident high-water "
                         "mark; peak_rss_mib includes set-up\n");
  }
  if (refs != nullptr) std::fclose(refs);
}

// Peak resident memory since the last ResetPeakRss (VmHWM).
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

// Histogram bucket counts accumulated between two snapshots of one series.
obs::Histogram::Snapshot Delta(const obs::Histogram::Snapshot& after,
                               const obs::Histogram::Snapshot& before) {
  obs::Histogram::Snapshot delta = after;
  delta.count = 0;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= before.buckets[i];
    delta.count += delta.buckets[i];
  }
  delta.sum = after.sum - before.sum;
  return delta;
}

double Mean(const obs::Histogram::Snapshot& snapshot) {
  return snapshot.count == 0
             ? 0.0
             : snapshot.sum / static_cast<double>(snapshot.count);
}

double QuantileOrZero(const obs::Histogram::Snapshot& snapshot, double q) {
  return snapshot.count == 0 ? 0.0 : snapshot.Quantile(q);
}

// Everything the server exposes, sampled at one instant.
struct ServerSample {
  net::ServerStats stats;
  obs::Histogram::Snapshot predict_latency;
  obs::Histogram::Snapshot observe_latency;
  obs::Histogram::Snapshot batch_size;
};

ServerSample SampleServer(const net::Server& server) {
  ServerSample sample;
  sample.stats = server.Stats();
  sample.predict_latency = server.frame_latency().histogram_snapshot(
      net::Server::kLatencyPredict);
  sample.observe_latency = server.frame_latency().histogram_snapshot(
      net::Server::kLatencyObserve);
  sample.batch_size = server.batch_size_histogram();
  return sample;
}

// ---- Correctness --------------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;  // Closed + open phase requests.
  uint64_t failed = 0;     // Error frames and missing replies among them.
  std::vector<std::string> problems;
  bool correct() const { return problems.empty(); }
};

void Problem(Verdict* verdict, const char* what, uint64_t count) {
  if (count == 0) return;
  verdict->problems.push_back(std::string(what) + ": " +
                              std::to_string(count));
}

Verdict Check(const Loadgen& loadgen, Setup& setup) {
  Verdict verdict;
  uint64_t missing = 0;
  uint64_t duplicated = 0;
  uint64_t bad_value = 0;
  uint64_t not_global = 0;
  uint64_t mismatched = 0;
  uint64_t ok_predicts = 0;
  const bool global_only =
      setup.spec().kind == WorkloadKind::kGlobalBatch;
  for (const Record& r : loadgen.records()) {
    if (r.replies == 0) ++missing;
    if (r.replies > 1) ++duplicated;
    if (r.phase != Phase::kWarmup) {
      ++verdict.attempted;
      if (r.replies == 0 || r.error) ++verdict.failed;
    }
    if (!r.predict || r.replies == 0 || r.error) continue;
    if (!std::isfinite(r.seconds) || r.seconds < 0.0 ||
        r.source >= stage::core::kNumPredictionSources) {
      ++bad_value;
    }
    if (global_only &&
        r.source != static_cast<uint8_t>(PredictionSource::kGlobal)) {
      ++not_global;
    }
    // Served predictions of a global-only fleet are a pure function of the
    // plan: a sample must match an in-process Predict bit for bit.
    if (global_only && ok_predicts++ % 64 == 0) {
      const auto& event = *r.op.event;
      const stage::core::Prediction local = setup.fleet().Predict(
          r.op.tenant,
          stage::core::MakeQueryContext(
              event.plan, event.concurrent_queries,
              static_cast<uint64_t>(event.arrival_ms)));
      if (std::memcmp(&local.seconds, &r.seconds, sizeof(double)) != 0) {
        ++mismatched;
      }
    }
  }
  Problem(&verdict, "requests without a reply", missing);
  Problem(&verdict, "requests with more than one reply", duplicated);
  Problem(&verdict, "replies matching no request", loadgen.stray_replies());
  Problem(&verdict, "predictions not finite and >= 0", bad_value);
  Problem(&verdict, "global_batch predictions not served by the global model",
          not_global);
  Problem(&verdict, "served predictions differing from in-process Predict",
          mismatched);
  if (!loadgen.transport_error().empty()) {
    verdict.problems.push_back("transport: " + loadgen.transport_error());
  }
  return verdict;
}

// ---- Client-side measurements of one phase --------------------------------

struct Client {
  // A closed-loop predict falls due when it is sent, so its latency is
  // sent -> reply there.
  std::vector<double> predict_ms;  // Due -> reply.
  std::vector<double> observe_ms;  // Due (predict answered) -> ack.
  std::vector<double> lag_ms;      // Due -> sent.
  // Over the first kQerrorPredicts measured predicts of the op stream, so
  // that a faster program, which gets further into each tenant's trace in
  // the same time, is judged on the same queries.
  std::vector<double> qerror;
  uint64_t sources[stage::core::kNumPredictionSources] = {};
  uint64_t predicts = 0;
  double share(PredictionSource source) const {
    return predicts == 0 ? 0.0
                         : static_cast<double>(
                               sources[static_cast<int>(source)]) /
                               static_cast<double>(predicts);
  }
};

// Predicts that q-error is taken over: about two thirds of the slowest
// workload's closed loop at the reference box's rate. Fewer made the
// global_batch p50, which falls among few distinct plans, jump by seed.
constexpr size_t kQerrorPredicts = 40000;

Client Summarize(const Loadgen& loadgen, Phase phase) {
  Client client;
  std::vector<double> actual;
  std::vector<double> predicted;
  for (const Record& r : loadgen.records()) {
    if (r.phase == Phase::kWarmup || r.replies == 0 || r.error) continue;
    if (r.predict && actual.size() < kQerrorPredicts) {
      actual.push_back(r.op.event->exec_seconds);
      predicted.push_back(r.seconds);
    }
    if (r.phase != phase) continue;
    const double ms = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
    client.lag_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
    if (!r.predict) {
      client.observe_ms.push_back(ms);
      continue;
    }
    client.predict_ms.push_back(ms);
    ++client.predicts;
    if (r.source < stage::core::kNumPredictionSources) {
      ++client.sources[r.source];
    }
  }
  if (!actual.empty()) {
    client.qerror = stage::metrics::QErrors(actual, predicted);
  }
  return client;
}

// ---- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& problem : verdict.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::string line;
  net::JsonWriter w(&line);
  w.BeginObject();
  w.Key("correct").Bool(verdict.correct());
  w.Key("attempted").UInt(verdict.attempted);
  w.Key("failed").UInt(verdict.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Phase shares of --seconds. Every run warms up with the open loop. The
// untraced run then measures a closed loop only: its end-to-end latency is
// that of the closed loop, whose server never idles, because open-loop
// latency on a shared host follows the host's vCPU wake-ups (see
// README.md). The traced run measures the open loop (latency) before the
// closed loop (batching): the closed loop's burst of observes leaves
// background retrains queued that would otherwise land in the latency
// phase. It repeats both without the registry (the overhead reference),
// then with it, then replays in-process.
constexpr double kWarmupShare = 0.05;
constexpr double kClosedShare = 0.95;
constexpr double kTracedOpenShare = 0.25;
constexpr double kTracedClosedShare = 0.15;
constexpr double kReplayShare = 0.10;
// Set-ups per untraced run; setup_s is their median. Short set-ups repeat
// until kSetupSeconds have accumulated, so a cheap set-up gets as many
// samples as the box's noise needs.
constexpr int kMinSetups = 2;
constexpr int kMaxSetups = 9;
constexpr double kSetupSeconds = 5.0;

std::unique_ptr<Loadgen> ConnectLoadgen(Setup& setup, const Args& args) {
  auto loadgen = std::make_unique<Loadgen>(&setup, args.inject);
  std::string error;
  if (!loadgen->Connect(setup.server().port(), &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  return loadgen;
}

int RunUntraced(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Loadgen> loadgen;
  double total = 0.0;
  while (static_cast<int>(setup_seconds.size()) < kMinSetups ||
         (total < kSetupSeconds &&
          static_cast<int>(setup_seconds.size()) < kMaxSetups)) {
    loadgen.reset();
    setup.reset();
    const int64_t start = NowNs();
    setup = std::make_unique<Setup>(spec, args.seed, nullptr, args.scratch);
    loadgen = ConnectLoadgen(*setup, args);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    total += setup_seconds.back();
  }
  std::printf("setup: %.3f s median of %d (%.3f .. %.3f); last:",
              Median(setup_seconds), static_cast<int>(setup_seconds.size()),
              *std::min_element(setup_seconds.begin(), setup_seconds.end()),
              *std::max_element(setup_seconds.begin(), setup_seconds.end()));
  for (const auto& [step, seconds] : setup->step_seconds()) {
    std::printf(" %s %.3f s", step, seconds);
  }
  std::printf("\n");

  ResetPeakRss();
  loadgen->RunOpen(Phase::kWarmup, args.rate, kWarmupShare * args.seconds);
  const double qps = loadgen->RunClosed(Phase::kClosed, args.depth,
                                        kClosedShare * args.seconds);

  const double peak_rss_mib = PeakRssMib();
  const Verdict verdict = Check(*loadgen, *setup);
  const Client closed = Summarize(*loadgen, Phase::kClosed);
  std::printf("closed loop: %d in flight, %.1f predict replies/s, %zu "
              "predicts, %zu observes, predict p50 %.4f ms, p90 %.4f ms\n",
              args.depth, qps, closed.predict_ms.size(),
              closed.observe_ms.size(), Q(closed.predict_ms, 0.50),
              Q(closed.predict_ms, 0.90));
  if (loadgen->records().size() > kReservedRecords) {
    std::printf("WARNING: %zu requests outgrew the load generator's record "
                "buffer (%zu); its growth is part of peak_rss_mib\n",
                loadgen->records().size(), kReservedRecords);
  }
  std::printf("served by: cache %.4f  local %.4f  global %.4f  default "
              "%.4f\n",
              closed.share(PredictionSource::kCache),
              closed.share(PredictionSource::kLocal),
              closed.share(PredictionSource::kGlobal),
              closed.share(PredictionSource::kDefault));

  const double ok_frac =
      verdict.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(verdict.failed) /
                      static_cast<double>(verdict.attempted);
  const std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup_seconds)},
      {"throughput_qps", "1/s", qps},
      {"closed_predict_p50_ms", "ms", Q(closed.predict_ms, 0.50)},
      {"ok_frac", "fraction", ok_frac},
      {"qerror_p50", "ratio", Q(closed.qerror, 0.50)},
      {"qerror_p90", "ratio", Q(closed.qerror, 0.90)},
      {"peak_rss_mib", "MiB", peak_rss_mib},
  };
  PrintResult(verdict, metrics);
  return verdict.correct() ? 0 : 1;
}

// Merges one histogram family across every tenant stack in the registry
// (series whose name ends in `suffix`).
obs::Histogram::Snapshot MergeFamily(const net::JsonValue& registry,
                                     const std::string& suffix) {
  obs::Histogram::Snapshot merged;
  for (const auto& [name, value] : registry.object) {
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const net::JsonValue* buckets = value.Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) continue;
    if (merged.buckets.empty()) {
      merged.buckets.assign(buckets->array.size(), 0);
      for (const net::JsonValue& bucket : buckets->array) {
        const net::JsonValue* le = bucket.Find("le");
        if (le != nullptr && le->is_number()) merged.bounds.push_back(le->number);
      }
    }
    if (buckets->array.size() != merged.buckets.size()) continue;
    for (size_t i = 0; i < merged.buckets.size(); ++i) {
      const net::JsonValue* count = buckets->array[i].Find("count");
      const auto n = static_cast<uint64_t>(count != nullptr ? count->number
                                                            : 0.0);
      merged.buckets[i] += n;
      merged.count += n;
    }
    const net::JsonValue* max = value.Find("max");
    if (max != nullptr) merged.max = std::max(merged.max, max->number);
  }
  return merged;
}

double SumFamily(const net::JsonValue& registry, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : registry.object) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        value.is_number()) {
      total += value.number;
    }
  }
  return total;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  // Reference: the same set-up without the registry, closed loop only.
  double untraced_qps = 0.0;
  {
    Setup setup(spec, args.seed, nullptr, args.scratch);
    auto loadgen = ConnectLoadgen(setup, args);
    loadgen->RunOpen(Phase::kWarmup, args.rate, kWarmupShare * args.seconds);
    loadgen->RunOpen(Phase::kOpen, args.rate,
                     kTracedOpenShare * args.seconds);
    untraced_qps = loadgen->RunClosed(Phase::kClosed, args.depth,
                                      kTracedClosedShare * args.seconds);
  }

  obs::MetricsRegistry registry;
  Setup setup(spec, args.seed, &registry, args.scratch);
  auto loadgen = ConnectLoadgen(setup, args);
  loadgen->RunOpen(Phase::kWarmup, args.rate, kWarmupShare * args.seconds);
  const ServerSample at_start = SampleServer(setup.server());
  const uint64_t evictions_at_start = setup.fleet().evictions();
  const auto& activation = setup.fleet().activation_latency();
  using stage::fleet_serve::FleetService;
  const auto parked_at_start =
      activation.histogram_snapshot(FleetService::kActivationFromParked);
  const auto file_at_start =
      activation.histogram_snapshot(FleetService::kActivationFromFile);

  // Latency metrics belong to the open loop, batching metrics to the
  // closed loop (throughput).
  loadgen->RunOpen(Phase::kOpen, args.rate, kTracedOpenShare * args.seconds);
  const ServerSample after_open = SampleServer(setup.server());
  const double traced_qps = loadgen->RunClosed(
      Phase::kClosed, args.depth, kTracedClosedShare * args.seconds);
  const ServerSample after_closed = SampleServer(setup.server());

  const Verdict verdict = Check(*loadgen, setup);
  const Client open = Summarize(*loadgen, Phase::kOpen);

  net::JsonValue scraped;
  if (!net::ParseJson(registry.RenderJson(), &scraped)) {
    std::fprintf(stderr, "perfbench: registry JSON did not parse\n");
    return 2;
  }

  const double closed_batch_mean =
      Mean(Delta(after_closed.batch_size, after_open.batch_size));
  const double open_batch_mean =
      Mean(Delta(after_open.batch_size, at_start.batch_size));
  // The replay flushes batches of the closed loop's mean size.
  const int batch =
      std::clamp(static_cast<int>(std::lround(closed_batch_mean)), 1, 64);
  Spans spans;
  const ReplayResult replay =
      Replay(setup, batch, kReplayShare * args.seconds, &spans);

  const auto predict_hist =
      Delta(after_open.predict_latency, at_start.predict_latency);
  const auto observe_hist =
      Delta(after_open.observe_latency, at_start.observe_latency);
  uint64_t flushes = 0;
  for (int i = 0; i < net::kNumFlushReasons; ++i) {
    flushes += after_closed.stats.batch_flushes[i] -
               after_open.stats.batch_flushes[i];
  }
  const auto full = static_cast<size_t>(net::FlushReason::kFull);
  const uint64_t full_flushes = after_closed.stats.batch_flushes[full] -
                                after_open.stats.batch_flushes[full];
  const auto parked = Delta(
      activation.histogram_snapshot(FleetService::kActivationFromParked),
      parked_at_start);
  const auto from_file = Delta(
      activation.histogram_snapshot(FleetService::kActivationFromFile),
      file_at_start);
  const auto cache_hist =
      MergeFamily(scraped, "predict_latency_ns{stage=\"cache\"}");
  const auto local_hist =
      MergeFamily(scraped, "predict_latency_ns{stage=\"local\"}");

  const double client_p50 = Q(open.predict_ms, 0.50);
  const double server_p50 = QuantileOrZero(predict_hist, 0.50) * 1e-6;
  const auto overloaded =
      static_cast<size_t>(net::WireError::kOverloaded);
  const std::vector<Metric> metrics = {
      {"loadgen.send_lag_p99_ms", "ms", Q(open.lag_ms, 0.99)},
      {"loadgen.predict_p50_ms", "ms", client_p50},
      {"loadgen.predict_p90_ms", "ms", Q(open.predict_ms, 0.90)},
      {"loadgen.predict_p99_ms", "ms", Q(open.predict_ms, 0.99)},
      {"loadgen.observe_p50_ms", "ms", Q(open.observe_ms, 0.50)},
      {"loadgen.observe_p90_ms", "ms", Q(open.observe_ms, 0.90)},
      {"loadgen.observe_p99_ms", "ms", Q(open.observe_ms, 0.99)},
      {"net.server_predict_p50_ms", "ms", server_p50},
      {"net.server_predict_p99_ms", "ms",
       QuantileOrZero(predict_hist, 0.99) * 1e-6},
      {"net.server_observe_p99_ms", "ms",
       QuantileOrZero(observe_hist, 0.99) * 1e-6},
      {"net.socket_p50_ms", "ms", client_p50 - server_p50},
      {"net.batch_size_mean", "requests", closed_batch_mean},
      {"net.flush_full_frac", "fraction",
       flushes == 0 ? 0.0
                    : static_cast<double>(full_flushes) /
                          static_cast<double>(flushes)},
      {"net.effective_window_us", "us",
       static_cast<double>(after_open.stats.effective_window_us)},
      {"net.overloaded", "count",
       static_cast<double>(after_closed.stats.errors_by_code[overloaded] -
                           at_start.stats.errors_by_code[overloaded])},
      {"net.decode_ns_p50", "ns", Q(replay.decode_ns, 0.50)},
      {"net.encode_ns_p50", "ns", Q(replay.encode_ns, 0.50)},
      {"plan.context_ns_p50", "ns", Q(replay.context_ns, 0.50)},
      {"fleet_serve.predict_batch_us_p50", "us",
       Q(replay.predict_batch_us, 0.50)},
      {"fleet_serve.predict_batch_us_p99", "us",
       Q(replay.predict_batch_us, 0.99)},
      {"fleet_serve.observe_us_p50", "us", Q(replay.observe_us, 0.50)},
      {"fleet_serve.observe_us_p99", "us", Q(replay.observe_us, 0.99)},
      {"fleet_serve.cold_frac", "fraction",
       replay.predict_batch_us.empty()
           ? 0.0
           : static_cast<double>(replay.cold_calls) /
                 static_cast<double>(replay.predict_batch_us.size())},
      {"fleet_serve.activation_parked_us_p50", "us",
       QuantileOrZero(parked, 0.50) * 1e-3},
      {"fleet_serve.activation_parked_us_p99", "us",
       QuantileOrZero(parked, 0.99) * 1e-3},
      {"fleet_serve.activation_file_us_p50", "us",
       QuantileOrZero(from_file, 0.50) * 1e-3},
      {"fleet_serve.activation_file_us_p99", "us",
       QuantileOrZero(from_file, 0.99) * 1e-3},
      {"fleet_serve.evictions", "count",
       static_cast<double>(setup.fleet().evictions() - evictions_at_start)},
      {"fleet_serve.resident_mib", "MiB",
       static_cast<double>(setup.fleet().ResidentBytes()) /
           (1024.0 * 1024.0)},
      {"cache.hit_frac", "fraction", open.share(PredictionSource::kCache)},
      {"cache.lookup_ns_p50", "ns", QuantileOrZero(cache_hist, 0.50)},
      {"local.served_frac", "fraction", open.share(PredictionSource::kLocal)},
      {"local.predict_ns_p50", "ns", QuantileOrZero(local_hist, 0.50)},
      {"local.trainings", "count",
       SumFamily(scraped, "local_trainings_total")},
      {"global.served_frac", "fraction",
       open.share(PredictionSource::kGlobal)},
      {"global.batch_us_p50", "us", Q(replay.global_us, 0.50)},
      {"global.rows_per_call", "rows",
       replay.global_us.empty()
           ? 0.0
           : static_cast<double>(replay.global_rows) /
                 static_cast<double>(replay.global_us.size())},
      {"obs.trace_overhead_frac", "fraction",
       untraced_qps > 0.0 ? 1.0 - traced_qps / untraced_qps : 0.0},
  };
  std::printf("traced closed loop %.1f/s vs untraced %.1f/s; mean batch "
              "%.2f closed, %.2f open; replay %zu tenant groups in batches "
              "of %d\n",
              traced_qps, untraced_qps, closed_batch_mean, open_batch_mean,
              replay.predict_batch_us.size(), batch);
  if (Q(open.lag_ms, 0.99) > client_p50) {
    std::printf("WARNING: the generator ran late (send lag p99 above the "
                "open-loop predict p50); the loadgen.* latencies of this run "
                "are not a result\n");
  }
  spans.PrintSelfTimes();
  double predict_batch_total = 0.0;
  double global_total = 0.0;
  for (const double us : replay.predict_batch_us) predict_batch_total += us;
  for (const double us : replay.global_us) global_total += us;
  std::printf("global model, timed directly on the escalated rows: %.1f%% "
              "of fleet_serve.predict_batch time\n",
              predict_batch_total > 0.0
                  ? 100.0 * global_total / predict_batch_total
                  : 0.0);
  PrintResult(verdict, metrics);
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeWorkloadSpec(args.workload, args.small, &spec)) {
    std::fprintf(stderr,
                 "usage: stage_perfbench --workload global_batch|fleet_churn "
                 "--seed N --seconds S --trace 0|1 --rate OPS "
                 "--depth N [--small] "
                 "[--inject none|corrupt|drop] [--scratch DIR]\n");
    return 2;
  }
  // Open-loop sends wake from ppoll; the default 50us timer slack would
  // show up as send lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::printf("workload %s seed %llu: %d tenants, rate %.1f ops/s, depth %d, "
              "%d connections%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.tenants, args.rate, args.depth, kConnections,
              args.small ? " (small)" : "");
  return args.trace == 0 ? RunUntraced(spec, args) : RunTraced(spec, args);
}
