#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "loadgen.h"
#include "stage/common/macros.h"

namespace perfbench {

namespace sfs = stage::fleet_serve;

namespace {

// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The fleet (instances and their traces) and the global model's training
// corpus are one fixed dataset; the run seed draws the request stream,
// stream offsets, tenant popularity and snapshot membership from it.
// Fleets generated per seed differ in ways no request sample averages out:
// q-error of a global model on unseen instances varied by a third across
// seeds, wider than any bound the benchmark may set.
constexpr uint64_t kDatasetSeed = 2024;

// Global-model training corpus: this many generated instances.
constexpr int kTrainInstances = 2;
// fleet_churn: the share of tenants whose state starts in the attached SFLT
// snapshot, the resident-bytes budget as a share of the state those tenants
// hold, and the Zipf exponent of tenant popularity.
constexpr double kSnapshotShare = 0.5;
constexpr double kBudgetShare = 0.1;
constexpr double kZipfExponent = 1.0;

std::atomic<uint64_t> snapshot_counter{0};

}  // namespace

bool MakeWorkloadSpec(const std::string& name, bool small,
                      WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "global_batch") {
    // bench_net_serve's shape: read-only tenants that can never train, a
    // paper-shaped 256x6 global model. One writer tenant takes the
    // observe stream so its latency is measured without ever warming a
    // predict tenant's cache.
    s.kind = WorkloadKind::kGlobalBatch;
    s.tenants = 4;
    s.traces = 5;
    s.events_per_trace = small ? 64 : 256;
    s.train_queries = small ? 40 : 150;
    s.writer_every = 4;
  } else if (name == "fleet_churn") {
    s.kind = WorkloadKind::kFleetChurn;
    s.tenants = small ? 64 : 1024;
    s.traces = small ? 8 : 32;
    s.warm_events = small ? 40 : 64;
    s.events_per_trace = small ? 200 : 2000;
    s.train_queries = small ? 40 : 150;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

Setup::Setup(const WorkloadSpec& spec, uint64_t seed,
             stage::obs::MetricsRegistry* registry,
             const std::string& scratch_dir)
    : spec_(spec), registry_(registry), rng_(Mix(seed, 3)) {
  snapshot_path_ = scratch_dir + "/churn-" + std::to_string(getpid()) + "-" +
                   std::to_string(snapshot_counter.fetch_add(1)) + ".sflt";
  int64_t start = NowNs();
  const auto step = [&](const char* name) {
    const int64_t now = NowNs();
    step_seconds_.emplace_back(name, static_cast<double>(now - start) * 1e-9);
    start = now;
  };
  BuildTraces();
  step("traces");
  TrainGlobalModel();
  step("global_train");
  if (spec_.kind == WorkloadKind::kFleetChurn) {
    BuildChurnFleet();
  } else {
    BuildGlobalFleet();
  }
  step("fleet_warmup");
  stage::net::ServerConfig config;
  config.num_workers = 2;
  config.batch_window_us = 200;
  config.max_batch = 64;
  config.queue_bound = 4096;
  config.max_connections = 64;
  stage::net::ServerOptions options;
  options.metrics = registry_;
  server_ = std::make_unique<stage::net::Server>(fleet_.get(), config,
                                                 options);
  step("server_start");
}

Setup::~Setup() {
  server_.reset();
  fleet_.reset();
  std::remove(snapshot_path_.c_str());
}

void Setup::BuildTraces() {
  stage::fleet::FleetConfig config;
  config.num_instances = spec_.traces;
  config.workload.num_queries = spec_.events_per_trace;
  config.seed = Mix(kDatasetSeed, 1);
  traces_ = stage::fleet::FleetGenerator(config).GenerateFleet();
}

void Setup::TrainGlobalModel() {
  stage::fleet::FleetConfig config;
  config.num_instances = kTrainInstances;
  config.workload.num_queries = spec_.train_queries;
  config.seed = Mix(kDatasetSeed, 2);
  std::vector<stage::global::GlobalExample> examples;
  for (const auto& instance :
       stage::fleet::FleetGenerator(config).GenerateFleet()) {
    for (const auto& event : instance.trace) {
      examples.push_back(stage::global::MakeGlobalExample(
          event.plan, instance.config, event.concurrent_queries,
          event.exec_seconds));
    }
  }
  stage::global::GlobalModelConfig model;
  if (spec_.kind == WorkloadKind::kGlobalBatch) {
    // Paper-shaped inference cost (bench_net_serve's network): the GEMM
    // forest is what this workload measures, not the model's accuracy.
    model.hidden_dim = 256;
    model.num_layers = 6;
    model.head_hidden = {256, 128};
    model.epochs = 1;
  }
  global_model_ = stage::global::GlobalModel::Train(examples, model);
}

stage::core::StagePredictorOptions Setup::TenantOptions(
    uint64_t tenant) const {
  stage::core::StagePredictorOptions options;
  options.global_model = &global_model_;
  options.instance = &instance_of(tenant);
  options.metrics = registry_;
  options.metrics_prefix = "stage_t" + std::to_string(tenant) + "_";
  return options;
}

void Setup::ObservePrefix(sfs::FleetService& fleet, uint64_t tenant) const {
  const auto& trace = traces_[tenant % traces_.size()].trace;
  for (int i = 0; i < spec_.warm_events; ++i) {
    const auto& event = trace[static_cast<size_t>(i)];
    fleet.Observe(tenant,
                  stage::core::MakeQueryContext(
                      event.plan, event.concurrent_queries,
                      static_cast<uint64_t>(event.arrival_ms)),
                  event.exec_seconds);
  }
}

void Setup::BuildGlobalFleet() {
  sfs::FleetServiceConfig config;
  config.stack.predictor.min_train_size = 1 << 30;  // Never trains.
  sfs::FleetServiceOptions options;
  options.metrics = registry_;
  fleet_ = std::make_unique<sfs::FleetService>(config, options);
  // The predict tenants plus the observe-only writer.
  for (int t = 0; t <= spec_.tenants; ++t) {
    const auto tenant = static_cast<uint64_t>(t);
    fleet_->RegisterTenant(tenant, TenantOptions(tenant));
  }
}

void Setup::BuildChurnFleet() {
  const auto tenants = static_cast<size_t>(spec_.tenants);
  const std::vector<size_t> order = rng_.Permutation(tenants);
  const auto snapshot_tenants = static_cast<size_t>(
      std::lround(kSnapshotShare * static_cast<double>(tenants)));

  // A seed fleet warms the snapshot share of the tenants and writes them to
  // an SFLT snapshot, which the serving fleet attaches as its cold source.
  size_t snapshot_bytes = 0;
  {
    sfs::FleetServiceConfig config;
    config.async_retrain = false;
    sfs::FleetService seed_fleet(config);
    for (size_t i = 0; i < snapshot_tenants; ++i) {
      const uint64_t tenant = order[i];
      stage::core::StagePredictorOptions options;
      options.global_model = &global_model_;
      options.instance = &instance_of(tenant);
      seed_fleet.RegisterTenant(tenant, options);
      ObservePrefix(seed_fleet, tenant);
    }
    snapshot_bytes = seed_fleet.ResidentBytes();
    std::string error;
    STAGE_CHECK_MSG(seed_fleet.SaveSnapshot(snapshot_path_, &error),
                    error.c_str());
  }

  sfs::FleetServiceConfig config;
  config.resident_bytes_budget = std::max<size_t>(
      1, static_cast<size_t>(kBudgetShare *
                             static_cast<double>(snapshot_bytes)));
  sfs::FleetServiceOptions options;
  options.metrics = registry_;
  fleet_ = std::make_unique<sfs::FleetService>(config, options);
  for (size_t t = 0; t < tenants; ++t) {
    fleet_->RegisterTenant(t, TenantOptions(t));
  }
  std::string error;
  STAGE_CHECK_MSG(fleet_->AttachSnapshot(snapshot_path_, &error),
                  error.c_str());

  // Tenants sharing a trace start at different offsets past the warm-up
  // prefix so they do not replay it in lockstep.
  const auto span = static_cast<uint64_t>(spec_.events_per_trace -
                                          spec_.warm_events);
  cursor_.resize(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    cursor_[t] = static_cast<size_t>(spec_.warm_events) +
                 static_cast<size_t>(rng_.NextBelow(span));
  }
  // Zipf popularity over a seed-shuffled ranking of the tenants. Rank r
  // goes to a tenant replaying trace r % traces, so every seed spreads the
  // hot ranks evenly over the traces and only the tenant within each trace
  // changes; otherwise the plan mix of the few hottest tenants, and with it
  // the closed-loop rate, moved by a third from seed to seed.
  const auto num_traces = static_cast<size_t>(spec_.traces);
  std::vector<std::vector<uint64_t>> by_trace(num_traces);
  for (const size_t tenant : rng_.Permutation(tenants)) {
    by_trace[tenant % num_traces].push_back(tenant);
  }
  rank_to_tenant_.resize(tenants);
  for (size_t r = 0; r < tenants; ++r) {
    rank_to_tenant_[r] = by_trace[r % num_traces][r / num_traces];
  }
  zipf_cdf_.resize(tenants);
  double total = 0.0;
  for (size_t r = 0; r < tenants; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
}

uint64_t Setup::NextTenant() {
  switch (spec_.kind) {
    case WorkloadKind::kGlobalBatch:
      return rng_.NextBelow(static_cast<uint64_t>(spec_.tenants));
    case WorkloadKind::kFleetChurn: {
      const double u = rng_.NextDouble();
      const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const auto rank = static_cast<size_t>(
          std::min<ptrdiff_t>(it - zipf_cdf_.begin(),
                              static_cast<ptrdiff_t>(zipf_cdf_.size()) - 1));
      return rank_to_tenant_[rank];
    }
  }
  return 0;
}

Op Setup::NextOp() {
  Op op;
  const uint64_t index = ops_++;
  if (spec_.writer_every > 0 &&
      index % static_cast<uint64_t>(spec_.writer_every) ==
          static_cast<uint64_t>(spec_.writer_every) - 1) {
    op.tenant = static_cast<uint64_t>(spec_.tenants);  // The writer.
    op.predict = false;
    op.observe = true;
  } else {
    op.tenant = NextTenant();
    op.observe = spec_.kind != WorkloadKind::kGlobalBatch;
  }
  const auto& trace = traces_[op.tenant % traces_.size()].trace;
  if (spec_.kind == WorkloadKind::kGlobalBatch) {
    // Never observed, so order carries no state: any plan of the pool.
    op.event = &trace[rng_.NextBelow(trace.size())];
    return op;
  }
  size_t& cursor = cursor_[op.tenant];
  if (cursor >= trace.size()) cursor = static_cast<size_t>(spec_.warm_events);
  op.event = &trace[cursor++];
  return op;
}

}  // namespace perfbench
