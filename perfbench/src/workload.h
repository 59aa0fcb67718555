#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stage/common/rng.h"
#include "stage/fleet/fleet.h"
#include "stage/fleet_serve/fleet_service.h"
#include "stage/global/global_model.h"
#include "stage/net/server.h"
#include "stage/obs/metrics.h"

namespace perfbench {

enum class WorkloadKind { kGlobalBatch, kFleetChurn };

// Sizes of one workload. Workload names map to a spec; `small` shrinks
// every size for the self-test.
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kGlobalBatch;
  // Tenants that receive predicts (global_batch adds one observe-only
  // writer tenant on top).
  int tenants = 4;
  // Distinct generated traces; tenant t replays trace t % traces.
  int traces = 4;
  int events_per_trace = 256;
  // fleet_churn: leading events of its trace each snapshot tenant
  // observes in set-up; every tenant's stream starts past them.
  int warm_events = 0;
  // Global-model training corpus: queries per training instance.
  int train_queries = 150;
  // global_batch: one observe-only op per this many ops (0 = none).
  int writer_every = 0;
};

bool MakeWorkloadSpec(const std::string& name, bool small,
                      WorkloadSpec* spec);

// One request the load generator can send. `event` points into the
// set-up's traces; its exec_seconds is the ground truth, which is only
// ever sent on an observe.
struct Op {
  uint64_t tenant = 0;
  const stage::fleet::QueryEvent* event = nullptr;
  bool predict = true;   // False: an observe-only op.
  bool observe = false;  // Observe the query once its predict is answered.
};

// Everything set-up builds, in construction order: traces, global model,
// fleet service (warmed, snapshot attached), server. The op stream is
// deterministic in the seed.
class Setup {
 public:
  // `registry` non-null attaches the program's obs registry to the server,
  // the fleet service and every tenant stack. `scratch_dir` holds the
  // snapshot file fleet_churn writes and attaches.
  Setup(const WorkloadSpec& spec, uint64_t seed,
        stage::obs::MetricsRegistry* registry,
        const std::string& scratch_dir);
  ~Setup();

  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  Op NextOp();

  stage::fleet_serve::FleetService& fleet() { return *fleet_; }
  stage::net::Server& server() { return *server_; }
  const stage::global::GlobalModel& global_model() const {
    return global_model_;
  }
  const stage::fleet::InstanceConfig& instance_of(uint64_t tenant) const {
    return traces_[tenant % traces_.size()].config;
  }
  const WorkloadSpec& spec() const { return spec_; }
  // Wall time of each set-up step, in order.
  const std::vector<std::pair<const char*, double>>& step_seconds() const {
    return step_seconds_;
  }

 private:
  void BuildTraces();
  void TrainGlobalModel();
  void BuildGlobalFleet();
  void BuildChurnFleet();
  stage::core::StagePredictorOptions TenantOptions(uint64_t tenant) const;
  // Observes the first warm_events of the tenant's trace in-process.
  void ObservePrefix(stage::fleet_serve::FleetService& fleet,
                     uint64_t tenant) const;
  uint64_t NextTenant();

  WorkloadSpec spec_;
  stage::obs::MetricsRegistry* registry_;
  std::string snapshot_path_;
  stage::Rng rng_;

  std::vector<stage::fleet::InstanceTrace> traces_;
  stage::global::GlobalModel global_model_;
  std::unique_ptr<stage::fleet_serve::FleetService> fleet_;
  std::unique_ptr<stage::net::Server> server_;

  // Per-tenant stream cursor into its trace, and the Zipf CDF over the
  // seed-shuffled tenant ranks (fleet_churn only).
  std::vector<size_t> cursor_;
  std::vector<double> zipf_cdf_;
  std::vector<uint64_t> rank_to_tenant_;
  uint64_t ops_ = 0;
  std::vector<std::pair<const char*, double>> step_seconds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
