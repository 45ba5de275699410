// End-to-end benchmark: command-line entry point.
//
//   e2ebench --workload <rpc_churn|bulk_contention|baseline_fig1>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (a fresh world each time, cycling through
// kRealizations input realizations derived from --seed) until --seconds of
// wall time have passed, at least kMinReps times, and reports medians. The
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
// repetition runs untraced and then traced on the same seed, and the
// metrics are the per-layer ones from the traced runs. The process exits
// non-zero when any outcome check or the backlog guard fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "e2ebench/harness.h"
#include "e2ebench/workloads.h"

namespace tenantnet::e2e {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 60;
// Repetition i simulates input realization i % kRealizations derived from
// --seed, so a run's medians cover several realizations of the seeded
// traffic, and every realization still repeats (determinism check).
constexpr size_t kRealizations = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"txn_per_s", "txn/s"},     {"mutation_p50_us", "us"},
      {"mutation_p99_us", "us"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"}};
  return kMetrics;
}

std::vector<MetricSpec> PerLayerMetrics() {
  static const std::vector<std::string> storage = [] {
    std::vector<std::string> out;
    for (const auto& [layer, verbs] :
         {std::pair{"core.", &CoreVerbs()}, std::pair{"vnet.", &VnetVerbs()}}) {
      for (const std::string& verb : *verbs) {
        for (const char* field : {".calls", ".failed", ".us_p50", ".us_p99"}) {
          out.push_back(layer + verb + field);
        }
      }
    }
    return out;
  }();
  std::vector<MetricSpec> specs = {
      {"core.verdict.calls", "count"},
      {"core.verdict.busy_s", "s"},
      {"core.verdict.ns_p50", "ns"},
      {"core.verdict.ns_p99", "ns"},
      {"core.verdict.share", "ratio"},
      {"core.edge.cache_hit_rate", "ratio"},
      {"core.edge.cache_stale", "count"},
      {"core.edge.update_messages", "count"},
      {"sim.reallocations", "count"},
      {"sim.realloc_s", "s"},
      {"sim.realloc_us_mean", "us"},
      {"sim.flows_touched_per_realloc", "count"},
      {"sim.flows_rescheduled", "count"},
      {"sim.active_flows_max", "count"},
      {"sim.replay.reallocations", "count"},
      {"sim.replay.realloc_s", "s"},
      {"sim.replay.realloc_us_mean", "us"},
      {"sim.replay.flows_touched_per_realloc", "count"},
      {"sim.start_flow.calls", "count"},
      {"sim.start_flow.busy_s", "s"},
      {"sim.start_flow.ns_p50", "ns"},
      {"sim.queue.events", "count"},
      {"sim.queue.pending_max", "count"},
      {"sim.exec.epochs", "count"},
      {"sim.exec.callbacks_deferred", "count"},
      {"sim.exec.lease_reconciliations", "count"},
      {"sim.exec.shards", "count"},
      {"vnet.verdict.calls", "count"},
      {"vnet.verdict.busy_s", "s"},
      {"vnet.verdict.ns_p50", "ns"},
      {"vnet.verdict.ns_p99", "ns"},
      {"vnet.verdict.cache_hit_rate", "ratio"},
      {"vnet.verdict.share", "ratio"},
      {"routing.propagate.calls", "count"},
      {"routing.propagate.us_p50", "us"},
      {"routing.propagate.us_p99", "us"},
      {"routing.bgp.rounds", "count"},
      {"routing.bgp.update_messages", "count"},
      {"routing.bgp.prefixes_processed", "count"},
      {"faults.injected", "count"},
      {"faults.reconverged", "count"},
      {"app.attempted", "count"},
      {"app.completed", "count"},
      {"app.denied", "count"},
      {"app.retries", "count"},
      {"app.gave_up", "count"},
      {"app.run_s", "s"},
      {"app.self_s", "s"},
      {"error_rate", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const std::string& n : storage) {
    const char* unit =
        n.ends_with(".us_p50") || n.ends_with(".us_p99") ? "us" : "count";
    specs.push_back({n.c_str(), unit});
  }
  return specs;
}

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

// bulk_contention measures the ShardExecutor at one worker thread: at
// min(nproc, 4) threads its per-epoch condition-variable handoff made
// txn_per_s and peak RSS swing by a factor of two between runs of one seed.
// Each run still replays one repetition at the threaded count and requires
// an identical digest (at two threads or more, even on one core).
constexpr int kBulkThreads = 1;
int CheckThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 2u, 4u));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      continue;
    }
    if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
      continue;
    } else {
      return false;
    }
    if (end == nullptr || end == value || *end != '\0') {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && args->seconds > 0 &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

std::string HashHex(const std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(text)));
  return buf;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<MetricSpec>& specs,
               const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name,
                  it == values.end() ? 0.0 : it->second, specs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double TxnPerS(const RepResult& r) {
  return r.run_s > 0 ? static_cast<double>(r.finished) / r.run_s : 0.0;
}

// Determinism: every repetition of one seed must simulate the same outcome.
void CheckSameDigest(const std::string& expected, const RepResult& r,
                     const char* what, std::vector<std::string>& violations) {
  if (r.digest != expected) {
    violations.push_back(std::string("digest differs: ") + what);
  }
}

// Sum of self times over every span name equals the RunAll wall time when
// every span of the measured phase nests under RunAll.
void CheckSelfTimeAccounting(const Tracer& tracer,
                             std::vector<std::string>& violations) {
  int64_t self_sum = 0;
  for (const std::string& name : tracer.names()) {
    self_sum += tracer.Stats(name).self_ns;
  }
  if (self_sum != tracer.Stats("RunAll").busy_ns) {
    violations.push_back("span self times do not add up to RunAll");
  }
}

void PrintLayerTable(const Tracer& tracer) {
  const double run_s =
      static_cast<double>(tracer.Stats("RunAll").busy_ns) / 1e9;
  std::vector<std::string> names = tracer.names();
  std::sort(names.begin(), names.end(), [&](const auto& a, const auto& b) {
    return tracer.Stats(a).busy_ns > tracer.Stats(b).busy_ns;
  });
  std::printf("%-28s %10s %10s %10s %8s\n", "span", "calls", "busy_s",
              "self_s", "self%");
  double self_total = 0;
  for (const std::string& name : names) {
    const Tracer::NameStats& s = tracer.Stats(name);
    const double self_s = static_cast<double>(s.self_ns) / 1e9;
    self_total += self_s;
    std::printf("%-28s %10llu %10.4f %10.4f %7.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(s.calls),
                static_cast<double>(s.busy_ns) / 1e9, self_s,
                run_s > 0 ? 100.0 * self_s / run_s : 0.0);
  }
  std::printf("%-28s %10s %10.4f %10.4f  (sum of self times == RunAll)\n",
              "total", "", run_s, self_total);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <rpc_churn|bulk_contention|"
                 "baseline_fig1> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const bool bulk = args.workload == "bulk_contention";
  RepConfig config;
  config.seed = args.seed;
  config.threads = kBulkThreads;

  // Only small per-repetition aggregates are kept.
  std::vector<std::string> violations;
  std::vector<std::string> digests;  // per realization
  std::string summary;               // realization 0's digest summary
  std::vector<double> txn_per_s, untraced_txn_per_s, setup_s;
  // Per repetition, so that every repetition of the run weighs the same
  // in the medians however many calls it makes.
  std::vector<double> mutation_p50_us, mutation_p99_us;
  std::map<std::string, std::vector<double>> layer;  // trace mode
  uint64_t attempted = 0, failed = 0;
  double peak_rss_mb = 0;
  Tracer last_tracer;
  const int64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  for (size_t rep = 0; rep < kMinReps ||
                       (elapsed() < args.seconds && rep < kMaxReps);
       ++rep) {
    const size_t realization = rep % kRealizations;
    config.seed = MixSeed(args.seed, realization);
    RepResult r;
    if (!args.trace) {
      r = RunWorkload(args.workload, config);
    } else {
      const RepResult plain = RunWorkload(args.workload, config);
      untraced_txn_per_s.push_back(TxnPerS(plain));
      Tracer tracer;
      RepConfig traced = config;
      traced.tracer = &tracer;
      r = RunWorkload(args.workload, traced);
      CheckSameDigest(plain.digest, r, "traced vs untraced", violations);
      CheckSelfTimeAccounting(tracer, violations);
      last_tracer = std::move(tracer);
      for (const auto& [key, value] : r.layer) {
        layer[key].push_back(value);
      }
    }
    mutation_p50_us.push_back(Quantile(r.mutation_latency_us, 0.5));
    mutation_p99_us.push_back(Quantile(r.mutation_latency_us, 0.99));
    std::printf("rep %zu (realization %zu): setup_s=%.4f run_s=%.4f txn=%llu "
                "txn_per_s=%.1f mutations=%llu p50/p99_us=%.2f/%.1f "
                "peak_rss_mb=%.1f digest=%s\n",
                rep + 1, realization, r.setup_s, r.run_s,
                static_cast<unsigned long long>(r.finished), TxnPerS(r),
                static_cast<unsigned long long>(r.mutator_calls),
                mutation_p50_us.back(), mutation_p99_us.back(), PeakRssMb(),
                HashHex(r.digest).c_str());
    if (digests.size() <= realization) {
      digests.push_back(r.digest);
    }
    if (rep == 0) {
      summary = r.digest_summary;
      // The peak of the first repetition alone. Later repetitions reuse
      // (or not) heap the earlier ones freed, which made the whole
      // process's peak swing by a third between runs of one seed.
      peak_rss_mb = PeakRssMb();
    }
    CheckSameDigest(digests[realization], r, "across repetitions", violations);
    attempted += r.transactions + r.mutator_calls;
    failed += r.gave_up + r.mutator_failed;
    txn_per_s.push_back(TxnPerS(r));
    setup_s.push_back(r.setup_s);
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
    if (!r.violations.empty()) {
      break;
    }
  }
  if (bulk && violations.empty()) {
    // The simulated outcome must not depend on the executor's thread count.
    RepConfig other = config;
    other.seed = MixSeed(args.seed, 0);
    other.threads = CheckThreads();
    CheckSameDigest(digests[0], RunWorkload(args.workload, other),
                    "1 thread vs N threads", violations);
  }
  std::string all_digests;
  for (const std::string& d : digests) {
    all_digests += d;
  }
  std::printf("workload=%s seed=%llu reps=%zu realizations=%zu threads=%d "
              "digest=%s\nrealization 0: %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), txn_per_s.size(),
              digests.size(), config.threads, HashHex(all_digests).c_str(),
              summary.c_str());

  std::map<std::string, double> values;
  std::vector<MetricSpec> specs;
  if (!args.trace) {
    specs = EndToEndMetrics();
    values["txn_per_s"] = Median(txn_per_s);
    values["mutation_p50_us"] = Median(mutation_p50_us);
    values["mutation_p99_us"] = Median(mutation_p99_us);
    values["setup_s"] = Median(setup_s);
    values["peak_rss_mb"] = peak_rss_mb;
  } else {
    specs = PerLayerMetrics();
    for (const auto& [key, samples] : layer) {
      values[key] = Median(samples);
    }
    const double traced_tps = Median(txn_per_s);
    values["trace.overhead_ratio"] =
        traced_tps > 0 ? Median(untraced_txn_per_s) / traced_tps : 0.0;
    values["error_rate"] =
        attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
    const double run_s = values["app.run_s"];
    values["core.verdict.share"] =
        run_s > 0 ? values["core.verdict.busy_s"] / run_s : 0.0;
    values["vnet.verdict.share"] =
        run_s > 0 ? values["vnet.verdict.busy_s"] / run_s : 0.0;
    PrintLayerTable(last_tracer);
    const std::string dir = ".bench_build/spans";
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !last_tracer.WriteTsv(path)) {
      std::fprintf(stderr, "e2ebench: cannot write spans to %s\n",
                   path.c_str());
    } else {
      std::printf("spans: %zu kept, written to %s\n",
                  last_tracer.spans().size(), path.c_str());
    }
  }
  for (const std::string& v : violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  PrintJson(violations.empty(), attempted, failed, specs, values);
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace tenantnet::e2e

int main(int argc, char** argv) { return tenantnet::e2e::Main(argc, argv); }
