// The benchmark's workloads. Each call builds a fresh seeded world, deploys
// it through the public layer APIs, runs one measured phase, checks the
// outcome, and returns what the harness measured. NOTES.md explains why
// each workload exists and which layer metric should move which
// end-to-end metric on it.

#ifndef TENANTNET_E2EBENCH_WORKLOADS_H_
#define TENANTNET_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/harness.h"

namespace tenantnet::e2e {

struct RepConfig {
  uint64_t seed = 1;
  Tracer* tracer = nullptr;  // null: untraced run
  int threads = 1;           // ShardExecutor workers (bulk_contention only)
};

struct RepResult {
  double setup_s = 0;         // world build + deployment
  double run_s = 0;           // measured phase wall time
  uint64_t transactions = 0;  // attempted
  uint64_t finished = 0;      // completed + denied + gave up
  uint64_t gave_up = 0;
  uint64_t mutator_calls = 0;
  uint64_t mutator_failed = 0;
  std::vector<double> mutation_latency_us;
  std::string digest;                   // DigestText of the outcome
  std::string digest_summary;           // DigestSummary of the outcome
  std::vector<std::string> violations;  // failed outcome checks
  std::map<std::string, double> layer;  // per-layer metrics
};

// "rpc_churn", "bulk_contention", "baseline_fig1".
const std::vector<std::string>& WorkloadNames();

// Control-plane verbs reported per layer as core.<verb>.* (Table 2) and
// vnet.<verb>.* (baseline mutators).
const std::vector<std::string>& CoreVerbs();
const std::vector<std::string>& VnetVerbs();

// Runs one repetition of `workload`; an unknown name returns a violation.
RepResult RunWorkload(const std::string& workload, const RepConfig& config);

// The in-flight backlog may grow by at most this share between the first
// and the last quarter of the arrival window (plus kBacklogSlack
// transactions), or the run fails as oversubscribed.
inline constexpr double kBacklogGrowthBound = 0.5;
inline constexpr double kBacklogSlack = 16;

// Backlog guard over in-flight samples taken at even sim-time steps across
// the arrival window. Returns an empty string when the backlog is steady.
std::string CheckBacklog(const std::vector<double>& inflight_samples);

}  // namespace tenantnet::e2e

#endif  // TENANTNET_E2EBENCH_WORKLOADS_H_
