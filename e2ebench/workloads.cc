#include "e2ebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/core/api.h"
#include "src/faults/fault_injector.h"
#include "src/reach/reach.h"
#include "src/sim/flow_sim.h"
#include "src/sim/shard_executor.h"
#include "src/telemetry/metrics.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace tenantnet::e2e {
namespace {

constexpr uint16_t kServicePort = 443;
constexpr int kBacklogSamples = 64;
constexpr int kVerdictChecks = 256;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Records a failed deployment step; the repetition then stops.
bool SetupOk(const Status& status, const char* what, RepResult& r) {
  if (!status.ok()) {
    r.violations.push_back(std::string("setup: ") + what + ": " +
                           status.ToString());
  }
  return status.ok();
}
template <typename T>
bool SetupOk(const Result<T>& result, const char* what, RepResult& r) {
  return SetupOk(result.status(), what, r);
}

struct CloudRegion {
  ProviderId provider;
  RegionId region;
  int zones;
};

// The five cloud regions of the Fig. 1 world, in a fixed order.
std::vector<CloudRegion> Fig1Regions(const Fig1World& fig) {
  return {{fig.cloud_a, fig.a_us_east, 3}, {fig.cloud_a, fig.a_us_west, 3},
          {fig.cloud_a, fig.a_eu_west, 3}, {fig.cloud_b, fig.b_us_east, 2},
          {fig.cloud_b, fig.b_europe, 2}};
}

// Samples the in-flight transaction count, live flows and pending events at
// even sim-time steps across the arrival window (backlog guard + maxima).
class BacklogSampler {
 public:
  BacklogSampler(EventQueue& queue, const FlowControlSurface& flows,
                 const RequestWorkload& workload)
      : queue_(queue), flows_(flows), workload_(workload) {}

  void Start(SimDuration window) {
    step_ = window / kBacklogSamples;
    queue_.ScheduleAfter(step_, [this] { Sample(); });
  }

  std::vector<double> inflight;
  double active_flows_max = 0;
  double pending_max = 0;

 private:
  void Sample() {
    inflight.push_back(static_cast<double>(workload_.inflight()));
    active_flows_max = std::max(
        active_flows_max, static_cast<double>(flows_.active_flow_count()));
    pending_max =
        std::max(pending_max, static_cast<double>(queue_.pending_count()));
    if (inflight.size() < static_cast<size_t>(kBacklogSamples)) {
      queue_.ScheduleAfter(step_, [this] { Sample(); });
    }
  }

  EventQueue& queue_;
  const FlowControlSurface& flows_;
  const RequestWorkload& workload_;
  SimDuration step_;
};

void AddSpanMetrics(const Tracer* tracer, const std::string& span,
                    const std::string& prefix, bool with_p99,
                    RepResult& r) {
  Tracer::NameStats stats =
      tracer != nullptr ? tracer->Stats(span) : Tracer::NameStats{};
  r.layer[prefix + ".calls"] = static_cast<double>(stats.calls);
  r.layer[prefix + ".busy_s"] = static_cast<double>(stats.busy_ns) / 1e9;
  r.layer[prefix + ".ns_p50"] = Quantile(stats.durations_ns, 0.5);
  if (with_p99) {
    r.layer[prefix + ".ns_p99"] = Quantile(stats.durations_ns, 0.99);
  }
}

void AddVerbMetrics(const ControlPlane& cp, const std::string& prefix,
                    const std::vector<std::string>& verbs, RepResult& r) {
  for (const std::string& verb : verbs) {
    const std::string name = prefix + "." + verb;
    auto it = cp.verbs().find(name);
    ControlPlane::Verb v =
        it != cp.verbs().end() ? it->second : ControlPlane::Verb{};
    r.layer[name + ".calls"] = static_cast<double>(v.calls);
    r.layer[name + ".failed"] = static_cast<double>(v.failed);
    r.layer[name + ".us_p50"] = Quantile(v.latency_us, 0.5);
    r.layer[name + ".us_p99"] = Quantile(v.latency_us, 0.99);
  }
}

// Everything every workload reports the same way once its run has drained:
// outcome checks, digest, application/sim/control-plane metrics.
void Conclude(const RequestWorkload& workload, const TracedSurface& surface,
              const BacklogSampler& sampler, const ControlPlane& cp,
              const Tracer* tracer, uint64_t events, RepResult& r) {
  double completed_bytes = 0;
  uint64_t attempted = 0, completed = 0, denied = 0, retries = 0, gave_up = 0;
  for (size_t p = 0; p < workload.pattern_count(); ++p) {
    const PatternStats& s = workload.stats(p);
    completed_bytes += s.bytes_transferred;
    attempted += s.attempted;
    completed += s.completed;
    denied += s.denied;
    retries += s.retries;
    gave_up += s.gave_up;
  }
  if (workload.inflight() != 0) {
    r.violations.push_back("inflight=" + std::to_string(workload.inflight()) +
                           " after drain");
  }
  if (surface.stalled_flow_count() != 0) {
    r.violations.push_back(
        "stalled_flows=" + std::to_string(surface.stalled_flow_count()));
  }
  const double engine_bytes =
      surface.total_bytes_delivered() + surface.bytes_blackholed();
  const double expected_bytes = completed_bytes + surface.aborted_bytes();
  if (std::fabs(engine_bytes - expected_bytes) >
      1e-9 * std::max(1.0, expected_bytes)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "byte conservation: engine %.17g vs workload %.17g",
                  engine_bytes, expected_bytes);
    r.violations.push_back(buf);
  }
  if (std::string why = CheckBacklog(sampler.inflight); !why.empty()) {
    r.violations.push_back(why);
  }
  // Every workload keeps its writes valid against the state it tracks, so
  // any non-OK Status is a failure of the program, not of the input.
  for (const auto& [verb, v] : cp.verbs()) {
    if (v.failed != 0) {
      r.violations.push_back(verb + ": " + std::to_string(v.failed) + " of " +
                             std::to_string(v.calls) + " calls failed");
    }
  }

  r.transactions = attempted;
  r.finished = completed + denied + gave_up;
  r.gave_up = gave_up;
  r.mutator_calls = cp.calls();
  r.mutator_failed = cp.failed();
  r.mutation_latency_us = cp.mutation_latency_us;
  r.digest = DigestText(workload);
  r.digest_summary = DigestSummary(workload);

  r.layer["app.attempted"] = static_cast<double>(attempted);
  r.layer["app.completed"] = static_cast<double>(completed);
  r.layer["app.denied"] = static_cast<double>(denied);
  r.layer["app.retries"] = static_cast<double>(retries);
  r.layer["app.gave_up"] = static_cast<double>(gave_up);
  const Tracer::NameStats run =
      tracer != nullptr ? tracer->Stats("RunAll") : Tracer::NameStats{};
  r.layer["app.run_s"] = static_cast<double>(run.busy_ns) / 1e9;
  r.layer["app.self_s"] = static_cast<double>(run.self_ns) / 1e9;

  r.layer["sim.reallocations"] =
      static_cast<double>(surface.reallocation_count());
  r.layer["sim.flows_rescheduled"] =
      static_cast<double>(surface.flows_rescheduled());
  r.layer["sim.active_flows_max"] = sampler.active_flows_max;
  AddSpanMetrics(tracer, "sim.start_flow", "sim.start_flow", false, r);
  r.layer["sim.queue.events"] = static_cast<double>(events);
  r.layer["sim.queue.pending_max"] = sampler.pending_max;

  AddVerbMetrics(cp, "core", CoreVerbs(), r);
  AddVerbMetrics(cp, "vnet", VnetVerbs(), r);
  auto prop = cp.verbs().find("routing.propagate");
  ControlPlane::Verb p =
      prop != cp.verbs().end() ? prop->second : ControlPlane::Verb{};
  r.layer["routing.propagate.calls"] = static_cast<double>(p.calls);
  r.layer["routing.propagate.us_p50"] = Quantile(p.latency_us, 0.5);
  r.layer["routing.propagate.us_p99"] = Quantile(p.latency_us, 0.99);
}

// On fault-free workloads no transaction has a reason to give up.
void RequireNoGiveUps(RepResult& r) {
  if (r.gave_up != 0) {
    r.violations.push_back(std::to_string(r.gave_up) +
                           " transactions gave up without faults");
  }
}

void AddFlowSimMetrics(const FlowSim& sim, RepResult& r) {
  const Histogram& realloc_us = sim.realloc_micros_histogram();
  r.layer["sim.realloc_s"] = realloc_us.sum() / 1e6;
  r.layer["sim.realloc_us_mean"] = realloc_us.mean();
  r.layer["sim.flows_touched_per_realloc"] =
      sim.mean_flows_touched_per_realloc();
}

// Runs the event loop (or the executor) under the root span every other
// span of the measured phase nests in.
template <typename Engine>
uint64_t RunAllTraced(Tracer* tracer, Engine& engine) {
  ScopedSpan root(tracer, tracer != nullptr ? tracer->Intern("RunAll") : 0);
  return engine.RunAll();
}

// ===========================================================================
// Declarative worlds (rpc_churn, bulk_contention).

struct DeclarativeDeployment {
  Fig1World fig;
  ConfigLedger ledger;
  std::unique_ptr<DeclarativeCloud> cloud;
  // EIP per instance id (IpAddress() = none).
  std::vector<IpAddress> eip;

  IpAddress EipOf(InstanceId id) const {
    return id.value() < eip.size() ? eip[id.value()] : IpAddress();
  }
};

// Admits/places one transaction through DeclarativeCloud::Evaluate toward
// the destination's EIP, or toward `sip` when given. `cap_to_vm` applies
// the source VM's provider egress guarantee as the response's rate cap.
ConnectorFn DeclarativeConnector(DeclarativeDeployment* d,
                                 std::optional<IpAddress> sip,
                                 bool cap_to_vm) {
  return [d, sip, cap_to_vm](InstanceId src, InstanceId dst) {
    ResolvedRoute route;
    const IpAddress target = sip ? *sip : d->EipOf(dst);
    auto delivery =
        d->cloud->Evaluate(src, target, kServicePort, Protocol::kTcp);
    if (!delivery.ok() || !delivery->delivered) {
      route.deny_stage =
          DenyStage(delivery.ok() ? delivery->drop_stage : "src-down");
      return route;
    }
    route.allowed = true;
    route.src_node = delivery->src_node;
    route.dst_node = delivery->dst_node;
    route.policy = delivery->egress_policy;
    if (cap_to_vm && delivery->vm_egress_cap_bps > 0) {
      route.rate_cap_bps = delivery->vm_egress_cap_bps;
    }
    return route;
  };
}

// Re-checks a seeded sample of (src, dst EIP) verdicts after the measured
// phase against the side-effect-free query engine.
void CheckDeclarativeVerdicts(DeclarativeDeployment& d, uint64_t seed,
                              const std::vector<InstanceId>& sources,
                              const std::vector<InstanceId>& destinations,
                              RepResult& r) {
  DeclarativeReachEngine engine(*d.fig.world, *d.cloud);
  Rng pick(MixSeed(seed, 77));
  for (int i = 0; i < kVerdictChecks; ++i) {
    InstanceId src = sources[pick.NextU64(sources.size())];
    InstanceId dst = destinations[pick.NextU64(destinations.size())];
    auto delivery =
        d.cloud->Evaluate(src, d.EipOf(dst), kServicePort, Protocol::kTcp);
    ReachVerdict query =
        engine.CanReach(src, d.EipOf(dst), kServicePort, Protocol::kTcp);
    const bool delivered = delivery.ok() && delivery->delivered;
    const bool stage_ok = delivered || !delivery.ok() ||
                          DenyStage(delivery->drop_stage) == query.deny_stage;
    if (delivered != query.reachable || !stage_ok) {
      r.violations.push_back("verdict mismatch " +
                             std::to_string(src.value()) + "->" +
                             d.EipOf(dst).ToString() + ": " + query.ToString());
      return;
    }
  }
}

void AddEdgeMetrics(DeclarativeDeployment& d, RepResult& r) {
  uint64_t lookups = 0, hits = 0, stale = 0, messages = 0;
  for (EdgeFilterBank* bank : {&d.cloud->provider_filters(d.fig.cloud_a),
                               &d.cloud->provider_filters(d.fig.cloud_b),
                               &d.cloud->on_prem_filters(d.fig.on_prem)}) {
    const VerdictCacheStats& s = bank->verdict_cache_stats();
    lookups += s.lookups;
    hits += s.hits;
    stale += s.stale;
    messages += bank->update_messages_sent();
  }
  r.layer["core.edge.cache_hit_rate"] =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  r.layer["core.edge.cache_stale"] = static_cast<double>(stale);
  r.layer["core.edge.update_messages"] = static_cast<double>(messages);
}

// ---------------------------------------------------------------------------
// rpc_churn: ~10k endpoints, service-structured small RPCs, mixed Table-2
// writes beside the reads.

constexpr int kServices = 40;
constexpr int kPerService = 250;       // 10,000 service endpoints
constexpr int kFronts = 8;             // callers per service
constexpr int kCallees = 8;            // EIP callees per pattern
constexpr int kSipBound = 8;           // initial SIP backends
constexpr int kSipMinBound = 4;
constexpr int kSipPool = 24;           // members eligible as SIP backends
constexpr int kSpares = 200;           // instances for request/release_eip
constexpr int kMonitorHosts = 16;
constexpr double kRpcRate = 24000;     // transactions per sim second
constexpr double kRpcHorizonS = 8;
constexpr double kMutationRate = 330;  // Table-2 writes per sim second

// Relative rates of the mutation mix. Group writes are ~6% of the mix:
// each one copies the member set to every edge and bumps the bank-wide
// verdict epoch, so they set mutation_p99_us and cost the read path.
struct MutationWeight {
  const char* verb;
  double weight;
};
constexpr MutationWeight kMutationMix[] = {
    {"update_permit_list", 100}, {"set_permit_list", 50}, {"bind", 40},
    {"unbind", 40},              {"set_qos", 20},         {"request_eip", 20},
    {"release_eip", 20},         {"group_add", 10},       {"group_remove", 10}};

IpAddress MonitorHost(int i) {
  return IpAddress::V4(0x0AC80000u + 100u + static_cast<uint32_t>(i));
}

// Service s admits its two caller services (s-1, s-7) by group, plus the
// on-prem monitoring range.
std::vector<PermitEntry> ServicePermits(
    int s, const std::vector<EndpointGroupId>& groups) {
  std::vector<PermitEntry> entries(3);
  entries[0].source_group = groups[(s + kServices - 1) % kServices];
  entries[1].source_group = groups[(s + kServices - 7) % kServices];
  entries[2].source = *IpPrefix::Parse("10.200.0.0/16");
  for (PermitEntry& e : entries) {
    e.proto = Protocol::kTcp;
    e.dst_ports = PortRange::Single(kServicePort);
  }
  entries[2].dst_ports = PortRange::Single(9100);
  return entries;
}

class RpcChurn {
 public:
  explicit RpcChurn(const RepConfig& config)
      : config_(config), cp_(nullptr), rng_(MixSeed(config.seed, 1)) {}

  RepResult Run() {
    const int64_t setup_start = NowNs();
    if (!Deploy()) {
      return std::move(r_);
    }
    FlowSim sim(queue_, d_.fig.world->topology());
    TracedSurface surface(sim, config_.tracer);
    WorkloadParams params;
    params.seed = MixSeed(config_.seed, 2);
    params.mean_response_bytes = 8 * 1024;
    RequestWorkload workload(queue_, surface, *d_.fig.world, params);
    AddPatterns(workload);
    r_.setup_s = SecondsSince(setup_start);

    const SimDuration horizon = SimDuration::Seconds(kRpcHorizonS);
    const int64_t run_start = NowNs();
    BacklogSampler sampler(queue_, surface, workload);
    sampler.Start(horizon);
    workload.Start(horizon);
    mutation_end_ = queue_.now() + horizon;
    cp_.set_tracer(config_.tracer);
    cp_.record_mutation_latency = true;
    ScheduleMutation();
    const uint64_t events = RunAllTraced(config_.tracer, queue_);
    r_.run_s = SecondsSince(run_start);
    cp_.record_mutation_latency = false;

    Conclude(workload, surface, sampler, cp_, config_.tracer, events, r_);
    RequireNoGiveUps(r_);
    AddFlowSimMetrics(sim, r_);
    AddEdgeMetrics(d_, r_);
    AddSpanMetrics(config_.tracer, "core.verdict", "core.verdict", true, r_);
    std::vector<InstanceId> sources, callees;
    for (int s = 0; s < kServices; ++s) {
      sources.insert(sources.end(), members_[s].begin(),
                     members_[s].begin() + kFronts);
      callees.insert(callees.end(), members_[s].begin(),
                     members_[s].begin() + kCallees);
    }
    CheckDeclarativeVerdicts(d_, config_.seed, sources, callees, r_);
    return std::move(r_);
  }

 private:
  bool Deploy() {
    d_.fig = BuildFig1World();
    CloudWorld& world = *d_.fig.world;
    DeclarativeParams params;
    params.rng_seed = MixSeed(config_.seed, 3);
    d_.cloud = std::make_unique<DeclarativeCloud>(world, d_.ledger, &queue_,
                                                  params);
    DeclarativeCloud& cloud = *d_.cloud;
    const std::vector<CloudRegion> regions = Fig1Regions(d_.fig);
    const TenantId tenant = d_.fig.tenant;

    members_.assign(kServices, {});
    for (int s = 0; s < kServices; ++s) {
      const CloudRegion& reg = regions[static_cast<size_t>(s) % regions.size()];
      service_region_.push_back(reg);
      for (int k = 0; k < kPerService; ++k) {
        auto id = world.LaunchInstance(tenant, reg.provider, reg.region,
                                       k % reg.zones);
        if (!SetupOk(id, "launch", r_)) {
          return false;
        }
        members_[s].push_back(*id);
      }
    }
    for (int i = 0; i < kSpares; ++i) {
      auto id = world.LaunchInstance(tenant, regions[0].provider,
                                     regions[0].region, i % regions[0].zones);
      if (!SetupOk(id, "launch spare", r_)) {
        return false;
      }
      spares_.push_back(*id);
    }
    d_.eip.assign(spares_.back().value() + 1, IpAddress());

    for (int s = 0; s < kServices; ++s) {
      for (InstanceId id : members_[s]) {
        auto eip = cp_.Call("core.request_eip",
                            [&] { return cloud.RequestEip(id); });
        if (!SetupOk(eip, "request_eip", r_)) {
          return false;
        }
        d_.eip[id.value()] = *eip;
      }
    }
    for (size_t i = 0; i < spares_.size(); i += 2) {
      auto eip = cp_.Call("core.request_eip",
                          [&] { return cloud.RequestEip(spares_[i]); });
      if (!SetupOk(eip, "request_eip", r_)) {
        return false;
      }
      d_.eip[spares_[i].value()] = *eip;
    }

    for (int s = 0; s < kServices; ++s) {
      auto group = cp_.Call("core.create_group", [&] {
        return cloud.CreateEndpointGroup(tenant, "svc" + std::to_string(s));
      });
      if (!SetupOk(group, "create_group", r_)) {
        return false;
      }
      groups_.push_back(*group);
    }
    in_group_.assign(d_.eip.size(), 0);
    for (int s = 0; s < kServices; ++s) {
      for (InstanceId id : members_[s]) {
        Status st = cp_.Call("core.group_add", [&] {
          return cloud.AddToEndpointGroup(groups_[s], d_.EipOf(id));
        });
        if (!SetupOk(st, "group_add", r_)) {
          return false;
        }
        in_group_[id.value()] = 1;
      }
    }
    extra_entry_.assign(d_.eip.size(), 0);
    for (int s = 0; s < kServices; ++s) {
      const std::vector<PermitEntry> permits = ServicePermits(s, groups_);
      for (InstanceId id : members_[s]) {
        auto st = cp_.Call("core.set_permit_list", [&] {
          return cloud.SetPermitList(d_.EipOf(id), permits);
        });
        if (!SetupOk(st, "set_permit_list", r_)) {
          return false;
        }
      }
    }
    bound_.assign(kServices, {});
    for (int s = 0; s < kServices; ++s) {
      auto sip = cp_.Call("core.request_sip", [&] {
        return cloud.RequestSip(tenant, service_region_[s].provider);
      });
      if (!SetupOk(sip, "request_sip", r_)) {
        return false;
      }
      sips_.push_back(*sip);
      for (int b = 0; b < kSipBound; ++b) {
        InstanceId backend = members_[s][kFronts + b];
        Status st = cp_.Call("core.bind", [&] {
          return cloud.Bind(d_.EipOf(backend), *sip, 1.0 + b % 3);
        });
        if (!SetupOk(st, "bind", r_)) {
          return false;
        }
        bound_[s].push_back(backend);
      }
    }
    // Let every edge install what the deployment pushed.
    queue_.RunAll();
    return true;
  }

  void AddPatterns(RequestWorkload& workload) {
    const double per_service = kRpcRate / kServices;
    for (int s = 0; s < kServices; ++s) {
      std::vector<InstanceId> fronts(members_[s].begin(),
                                     members_[s].begin() + kFronts);
      auto callees = [&](int t) {
        const auto& m = members_[(s + t) % kServices];
        return std::vector<InstanceId>(m.begin(), m.begin() + kCallees);
      };
      const std::string name = "svc" + std::to_string(s);
      workload.AddStreamingPattern(
          name + "->eip", fronts, callees(1),
          RateCurve::Constant(per_service * 0.5),
          TraceConnector(config_.tracer, "core.verdict",
                         DeclarativeConnector(&d_, std::nullopt, false)));
      const int sip_service = (s + 7) % kServices;
      workload.AddStreamingPattern(
          name + "->sip", fronts, bound_[sip_service],
          RateCurve::Constant(per_service * 0.4),
          TraceConnector(config_.tracer, "core.verdict",
                         DeclarativeConnector(&d_, sips_[sip_service], false)));
      // Not on the callee's permit list: denied at the edge filter.
      workload.AddStreamingPattern(
          name + "->denied", fronts, callees(3),
          RateCurve::Constant(per_service * 0.1),
          TraceConnector(config_.tracer, "core.verdict",
                         DeclarativeConnector(&d_, std::nullopt, false)));
    }
  }

  void ScheduleMutation() {
    const SimDuration gap =
        SimDuration::Seconds(rng_.NextExponential(kMutationRate));
    if (queue_.now() + gap >= mutation_end_) {
      return;
    }
    queue_.ScheduleAfter(gap, [this] {
      Mutate();
      ScheduleMutation();
    });
  }

  InstanceId RandomMember() {
    const auto& m = members_[rng_.NextU64(kServices)];
    return m[rng_.NextU64(m.size())];
  }

  // One Table-2 write, chosen from kMutationMix. Every choice is kept valid
  // against the tracked state, so a non-OK Status is a real failure.
  void Mutate() {
    double total = 0;
    for (const MutationWeight& w : kMutationMix) {
      total += w.weight;
    }
    double x = rng_.NextDouble() * total;
    std::string verb = kMutationMix[0].verb;
    for (const MutationWeight& w : kMutationMix) {
      if (x < w.weight) {
        verb = w.verb;
        break;
      }
      x -= w.weight;
    }
    DeclarativeCloud& cloud = *d_.cloud;
    if (verb == "update_permit_list") {
      InstanceId id = RandomMember();
      PermitEntry monitor;
      monitor.source = IpPrefix::Host(MonitorHost(
          static_cast<int>(id.value() % kMonitorHosts)));
      monitor.dst_ports = PortRange::Single(9100);
      monitor.proto = Protocol::kTcp;
      const bool present = extra_entry_[id.value()] != 0;
      std::vector<PermitEntry> add, remove;
      (present ? remove : add).push_back(monitor);
      cp_.Call("core.update_permit_list", [&] {
        return cloud.UpdatePermitList(d_.EipOf(id), add, remove);
      });
      extra_entry_[id.value()] = present ? 0 : 1;
    } else if (verb == "set_permit_list") {
      const int s = static_cast<int>(rng_.NextU64(kServices));
      InstanceId id = members_[s][rng_.NextU64(kPerService)];
      cp_.Call("core.set_permit_list", [&] {
        return cloud.SetPermitList(d_.EipOf(id), ServicePermits(s, groups_));
      });
      extra_entry_[id.value()] = 0;
    } else if (verb == "bind" || verb == "unbind") {
      const int s = static_cast<int>(rng_.NextU64(kServices));
      std::vector<InstanceId>& bound = bound_[s];
      if (verb == "unbind" && bound.size() > static_cast<size_t>(kSipMinBound)) {
        const size_t i = rng_.NextU64(bound.size());
        InstanceId backend = bound[i];
        cp_.Call("core.unbind",
                 [&] { return cloud.Unbind(d_.EipOf(backend), sips_[s]); });
        bound.erase(bound.begin() + static_cast<long>(i));
      } else {
        InstanceId backend = members_[s][kFronts + rng_.NextU64(kSipPool)];
        const double weight = 1.0 + static_cast<double>(rng_.NextU64(3));
        cp_.Call("core.bind", [&] {
          return cloud.Bind(d_.EipOf(backend), sips_[s], weight);
        });
        if (std::find(bound.begin(), bound.end(), backend) == bound.end()) {
          bound.push_back(backend);
        }
      }
    } else if (verb == "set_qos") {
      const CloudRegion& reg = service_region_[rng_.NextU64(kServices)];
      const double bps = 1e9 * static_cast<double>(1 + rng_.NextU64(8));
      cp_.Call("core.set_qos", [&] {
        return cloud.SetQos(d_.fig.tenant, reg.region, bps);
      });
    } else if (verb == "request_eip" || verb == "release_eip") {
      InstanceId spare = spares_[rng_.NextU64(spares_.size())];
      IpAddress& slot = d_.eip[spare.value()];
      if (slot == IpAddress()) {
        auto eip = cp_.Call("core.request_eip",
                            [&] { return cloud.RequestEip(spare); });
        if (eip.ok()) {
          slot = *eip;
        }
      } else {
        cp_.Call("core.release_eip", [&] { return cloud.ReleaseEip(slot); });
        slot = IpAddress();
      }
    } else {  // group_add / group_remove: one member leaves or rejoins
      const int s = static_cast<int>(rng_.NextU64(kServices));
      InstanceId id = members_[s][rng_.NextU64(kPerService)];
      if (in_group_[id.value()] != 0) {
        cp_.Call("core.group_remove", [&] {
          return cloud.RemoveFromEndpointGroup(groups_[s], d_.EipOf(id));
        });
        in_group_[id.value()] = 0;
      } else {
        cp_.Call("core.group_add", [&] {
          return cloud.AddToEndpointGroup(groups_[s], d_.EipOf(id));
        });
        in_group_[id.value()] = 1;
      }
    }
  }

  const RepConfig& config_;
  ControlPlane cp_;
  Rng rng_;
  EventQueue queue_;
  DeclarativeDeployment d_;
  RepResult r_;
  std::vector<CloudRegion> service_region_;
  std::vector<std::vector<InstanceId>> members_;
  std::vector<InstanceId> spares_;
  std::vector<EndpointGroupId> groups_;
  std::vector<IpAddress> sips_;
  std::vector<std::vector<InstanceId>> bound_;
  std::vector<uint8_t> in_group_;     // by instance id
  std::vector<uint8_t> extra_entry_;  // by instance id
  SimTime mutation_end_;
};

// ---------------------------------------------------------------------------
// bulk_contention: a deployed-once declarative world carrying heavy-tailed
// bulk responses across backbone and internet links, with a flash crowd.

constexpr int kBulkPerRegion = 120;
constexpr double kBulkMeanBytes = 24e6;
// Pareto shape with finite variance: still heavy-tailed, but the saturation
// a run sees no longer hinges on a handful of giant responses per seed.
constexpr double kBulkParetoAlpha = 2.5;
constexpr double kBulkHorizonS = 40.0;
// 1 Gbit/s VMs: a 100 Gbit/s backbone link carries ~100 capped flows
// before it saturates and the water-filler has to level shared groups.
constexpr double kBulkVmEgressBps = 1e9;
// Fixed shard count (independent of the thread count) so the link-cut
// partition, and with it the simulated outcome, is the same at any
// number of worker threads.
constexpr int kBulkShards = 4;

struct BulkFlowPattern {
  int src_region;  // index into Fig1Regions
  int dst_region;
  double rps;
  // Flash crowd: starts at this share of the horizon and ramps the rate to
  // (1 + flash_multiplier) x base over kFlashRise, then back over
  // kFlashFall. The bursts are staggered so each one saturates its links on
  // its own, and all drain before the last quarter of the horizon.
  double flash_start;
  double flash_multiplier;
};
constexpr SimDuration kFlashRise = SimDuration::Millis(1200);
constexpr SimDuration kFlashFall = SimDuration::Millis(2400);
// Region order: a_us_east, a_us_west, a_eu_west, b_us_east, b_europe.
// Base load is ~77% of a backbone link and ~60% of an internet path; every
// burst takes its links well past saturation.
constexpr BulkFlowPattern kBulkPatterns[] = {
    {0, 2, 400, 0.05, 0.4},  // cloud A backbone, transatlantic
    {0, 3, 125, 0.15, 2.0},  // cross-provider over the internet
    {1, 0, 400, 0.25, 0.4},  // cloud A backbone, cross-country
    {2, 4, 125, 0.35, 2.0},  // cross-provider, Europe
    {3, 4, 400, 0.45, 0.4},  // cloud B backbone
    {4, 1, 100, 0.55, 2.0},  // cross-provider long haul
};

class BulkContention {
 public:
  BulkContention(const RepConfig& config, bool use_executor)
      : config_(config),
        use_executor_(use_executor),
        tracer_(use_executor ? config.tracer : nullptr),
        cp_(nullptr) {}

  RepResult Run() {
    const int64_t setup_start = NowNs();
    cp_.record_mutation_latency = true;  // the deployment is the only writer
    if (!Deploy()) {
      return std::move(r_);
    }
    cp_.record_mutation_latency = false;
    std::unique_ptr<FlowSim> sim;
    std::unique_ptr<ShardExecutor> exec;
    FlowControlSurface* engine = nullptr;
    if (use_executor_) {
      ShardExecutor::Options opts;
      opts.num_threads = config_.threads;
      opts.num_shards = kBulkShards;
      exec = std::make_unique<ShardExecutor>(queue_, d_.fig.world->topology(),
                                             opts);
      engine = exec.get();
    } else {
      sim = std::make_unique<FlowSim>(queue_, d_.fig.world->topology());
      engine = sim.get();
    }
    TracedSurface surface(*engine, tracer_);
    WorkloadParams params;
    params.seed = MixSeed(config_.seed, 2);
    params.mean_response_bytes = kBulkMeanBytes;
    params.response_pareto_alpha = kBulkParetoAlpha;
    RequestWorkload workload(queue_, surface, *d_.fig.world, params);
    const SimDuration horizon = SimDuration::Seconds(kBulkHorizonS);
    for (const BulkFlowPattern& p : kBulkPatterns) {
      const RateCurve curve =
          RateCurve::FlashCrowd(p.rps, p.flash_multiplier,
                                horizon * p.flash_start, kFlashRise,
                                kFlashFall);
      workload.AddStreamingPattern(
          "r" + std::to_string(p.src_region) + "->r" +
              std::to_string(p.dst_region),
          by_region_[p.src_region], by_region_[p.dst_region], curve,
          TraceConnector(tracer_, "core.verdict",
                         DeclarativeConnector(&d_, std::nullopt, true)));
    }
    r_.setup_s = SecondsSince(setup_start);

    const int64_t run_start = NowNs();
    BacklogSampler sampler(queue_, surface, workload);
    sampler.Start(horizon);
    workload.Start(horizon);
    const uint64_t events =
        exec ? RunAllTraced(tracer_, *exec) : RunAllTraced(tracer_, queue_);
    r_.run_s = SecondsSince(run_start);

    Conclude(workload, surface, sampler, cp_, tracer_, events, r_);
    RequireNoGiveUps(r_);
    AddEdgeMetrics(d_, r_);
    AddSpanMetrics(tracer_, "core.verdict", "core.verdict", true, r_);
    if (sim) {
      AddFlowSimMetrics(*sim, r_);
    }
    if (exec) {
      r_.layer["sim.exec.epochs"] = static_cast<double>(exec->epochs_run());
      r_.layer["sim.exec.callbacks_deferred"] =
          static_cast<double>(exec->callbacks_deferred());
      r_.layer["sim.exec.lease_reconciliations"] =
          static_cast<double>(exec->lease_reconciliations());
      r_.layer["sim.exec.shards"] = static_cast<double>(exec->shard_count());
    }
    std::vector<InstanceId> all;
    for (const auto& region : by_region_) {
      all.insert(all.end(), region.begin(), region.end());
    }
    CheckDeclarativeVerdicts(d_, config_.seed, all, all, r_);
    return std::move(r_);
  }

 private:
  // Per region: EIPs, one endpoint group, and a permit list admitting the
  // groups of the regions that send to it.
  bool Deploy() {
    WorldParams world_params;
    world_params.default_vm_egress_bps = kBulkVmEgressBps;
    d_.fig = BuildFig1World(world_params);
    CloudWorld& world = *d_.fig.world;
    DeclarativeParams params;
    params.rng_seed = MixSeed(config_.seed, 3);
    d_.cloud = std::make_unique<DeclarativeCloud>(world, d_.ledger, &queue_,
                                                  params);
    DeclarativeCloud& cloud = *d_.cloud;
    const std::vector<CloudRegion> regions = Fig1Regions(d_.fig);
    by_region_.assign(regions.size(), {});
    for (size_t g = 0; g < regions.size(); ++g) {
      for (int k = 0; k < kBulkPerRegion; ++k) {
        auto id = world.LaunchInstance(d_.fig.tenant, regions[g].provider,
                                       regions[g].region, k % regions[g].zones);
        if (!SetupOk(id, "launch", r_)) {
          return false;
        }
        by_region_[g].push_back(*id);
      }
    }
    d_.eip.assign(by_region_.back().back().value() + 1, IpAddress());
    std::vector<EndpointGroupId> groups;
    for (size_t g = 0; g < regions.size(); ++g) {
      auto group = cp_.Call("core.create_group", [&] {
        return cloud.CreateEndpointGroup(d_.fig.tenant,
                                         "region" + std::to_string(g));
      });
      if (!SetupOk(group, "create_group", r_)) {
        return false;
      }
      groups.push_back(*group);
      for (InstanceId id : by_region_[g]) {
        auto eip = cp_.Call("core.request_eip",
                            [&] { return cloud.RequestEip(id); });
        if (!SetupOk(eip, "request_eip", r_)) {
          return false;
        }
        d_.eip[id.value()] = *eip;
        Status st = cp_.Call("core.group_add", [&] {
          return cloud.AddToEndpointGroup(*group, *eip);
        });
        if (!SetupOk(st, "group_add", r_)) {
          return false;
        }
      }
    }
    for (size_t g = 0; g < regions.size(); ++g) {
      std::vector<PermitEntry> permits;
      for (const BulkFlowPattern& p : kBulkPatterns) {
        if (static_cast<size_t>(p.dst_region) == g) {
          PermitEntry e;
          e.source_group = groups[static_cast<size_t>(p.src_region)];
          e.dst_ports = PortRange::Single(kServicePort);
          e.proto = Protocol::kTcp;
          permits.push_back(e);
        }
      }
      for (InstanceId id : by_region_[g]) {
        auto st = cp_.Call("core.set_permit_list", [&] {
          return cloud.SetPermitList(d_.EipOf(id), permits);
        });
        if (!SetupOk(st, "set_permit_list", r_)) {
          return false;
        }
      }
    }
    queue_.RunAll();
    return true;
  }

  const RepConfig& config_;
  bool use_executor_;
  Tracer* tracer_;
  ControlPlane cp_;
  EventQueue queue_;
  DeclarativeDeployment d_;
  RepResult r_;
  std::vector<std::vector<InstanceId>> by_region_;
};

// ---------------------------------------------------------------------------
// baseline_fig1: the traditional Fig. 1 deployment under a link-fault storm
// with periodic route/SG edits, each followed by route propagation.

constexpr int kExtraPerVpc = 1000;
constexpr double kFig1HorizonS = 10.0;
constexpr double kEditRate = 60;  // edits per sim second
constexpr size_t kStormEvents = 100;

class BaselineFig1 {
 public:
  explicit BaselineFig1(const RepConfig& config)
      : config_(config), cp_(nullptr), rng_(MixSeed(config.seed, 1)) {}

  RepResult Run() {
    const int64_t setup_start = NowNs();
    fig_ = BuildFig1World();
    CloudWorld& world = *fig_.world;
    net_ = std::make_unique<BaselineNetwork>(world, ledger_);
    auto built = BuildFig1Baseline(*net_, fig_);
    if (!SetupOk(built, "BuildFig1Baseline", r_)) {
      return std::move(r_);
    }
    handles_ = *built;
    if (!AttachExtras()) {
      return std::move(r_);
    }
    (void)net_->PropagateRoutes();

    FlowSim sim(queue_, world.topology());
    TracedSurface surface(sim, config_.tracer);
    WorkloadParams params;
    params.seed = MixSeed(config_.seed, 2);
    params.mean_response_bytes = 64 * 1024;
    params.max_retries = 12;
    RequestWorkload workload(queue_, surface, world, params);
    AddPatterns(workload);

    std::vector<LinkId> storm_links;
    for (size_t i = 0; i < world.topology().link_count(); ++i) {
      const LinkId link(i + 1);
      const LinkClass cls = world.topology().link(link).cls;
      if (cls == LinkClass::kBackbone || cls == LinkClass::kPublicInternet) {
        storm_links.push_back(link);
      }
    }
    const SimDuration horizon = SimDuration::Seconds(kFig1HorizonS);
    StormParams storm;
    storm.event_count = kStormEvents;
    storm.window = horizon * 0.9;
    storm.min_duration = SimDuration::Millis(50);
    storm.max_duration = SimDuration::Millis(400);
    storm.links = storm_links;
    storm.include_control_plane = false;
    FaultHooks hooks;
    // Transport faults make the tenant's control plane re-run propagation
    // (what a BGP hold-timer expiry triggers in a real deployment).
    auto repropagate = [this](const FaultSpec&) {
      cp_.Call("routing.propagate",
               [&] { return Converged(net_->PropagateRoutes()); }, false);
    };
    hooks.on_inject = repropagate;
    hooks.on_recover = repropagate;
    MetricRegistry metrics;
    FaultInjector injector(queue_, world.topology(), surface, &world, metrics,
                           std::move(hooks));
    r_.setup_s = SecondsSince(setup_start);

    const int64_t run_start = NowNs();
    BacklogSampler sampler(queue_, surface, workload);
    sampler.Start(horizon);
    workload.Start(horizon);
    injector.Schedule(FaultSchedule::Storm(MixSeed(config_.seed, 4), storm));
    edit_end_ = queue_.now() + horizon;
    cp_.set_tracer(config_.tracer);
    cp_.record_mutation_latency = true;
    ScheduleEdit();
    const uint64_t events = RunAllTraced(config_.tracer, queue_);
    r_.run_s = SecondsSince(run_start);
    cp_.record_mutation_latency = false;

    Conclude(workload, surface, sampler, cp_, config_.tracer, events, r_);
    AddFlowSimMetrics(sim, r_);
    AddSpanMetrics(config_.tracer, "vnet.verdict", "vnet.verdict", true, r_);
    const VerdictCacheStats& cache = net_->evaluate_cache_stats();
    r_.layer["vnet.verdict.cache_hit_rate"] = cache.hit_rate();
    r_.layer["routing.bgp.rounds"] = static_cast<double>(bgp_.rounds);
    r_.layer["routing.bgp.update_messages"] =
        static_cast<double>(bgp_.update_messages);
    r_.layer["routing.bgp.prefixes_processed"] =
        static_cast<double>(bgp_.prefixes_processed);
    r_.layer["faults.injected"] =
        static_cast<double>(injector.faults_injected());
    r_.layer["faults.reconverged"] =
        static_cast<double>(injector.faults_reconverged());
    if (!injector.AllRecovered()) {
      r_.violations.push_back("faults outstanding after drain");
    }
    CheckVerdicts();
    return std::move(r_);
  }

 private:
  // Route propagation returns stats, not a Status: it cannot fail. The
  // stats are accumulated into routing.bgp.*.
  Status Converged(const BgpMesh::ConvergenceStats& stats) {
    bgp_.rounds += stats.rounds;
    bgp_.update_messages += stats.update_messages;
    bgp_.prefixes_processed += stats.prefixes_processed;
    return Status::Ok();
  }

  // Extra instances in the four workload VPCs, attached to the private
  // subnet of their zone with the tier's security group.
  bool AttachExtras() {
    struct Tier {
      VpcId vpc;
      RegionId region;
      ProviderId provider;
      SecurityGroupId sg;
      std::vector<InstanceId>* members;
    };
    spark_ = fig_.spark;
    database_ = fig_.database;
    web_eu_ = fig_.web_eu;
    analytics_ = fig_.analytics;
    const Tier tiers[] = {
        {handles_.vpc_spark, fig_.a_us_east, fig_.cloud_a, handles_.sg_spark,
         &spark_},
        {handles_.vpc_db, fig_.b_us_east, fig_.cloud_b, handles_.sg_db,
         &database_},
        {handles_.vpc_web_eu, fig_.a_eu_west, fig_.cloud_a, handles_.sg_web,
         &web_eu_},
        {handles_.vpc_analytics, fig_.b_europe, fig_.cloud_b,
         handles_.sg_analytics, &analytics_}};
    for (const Tier& tier : tiers) {
      std::vector<SubnetId> subnets;
      for (SubnetId id : handles_.all_subnets) {
        const Subnet* subnet = net_->FindSubnet(id);
        if (subnet->vpc == tier.vpc && !subnet->is_public) {
          subnets.push_back(id);
        }
      }
      for (int k = 0; k < kExtraPerVpc; ++k) {
        const SubnetId subnet = subnets[static_cast<size_t>(k) % subnets.size()];
        auto id = fig_.world->LaunchInstance(
            fig_.tenant, tier.provider, tier.region,
            net_->FindSubnet(subnet)->zone_index);
        if (!SetupOk(id, "launch", r_)) {
          return false;
        }
        auto eni = cp_.Call("vnet.attach_instance", [&] {
          return net_->AttachInstance(*id, subnet, {tier.sg}, false);
        });
        if (!SetupOk(eni, "attach_instance", r_)) {
          return false;
        }
        tier.members->push_back(*id);
      }
    }
    return true;
  }

  ConnectorFn Connector(uint16_t port) {
    BaselineNetwork* net = net_.get();
    return TraceConnector(
        config_.tracer, "vnet.verdict",
        [net, port](InstanceId src, InstanceId dst) {
          ResolvedRoute route;
          auto d = net->Evaluate(src, dst, port, Protocol::kTcp);
          if (!d.ok() || !d->delivered) {
            route.deny_stage =
                DenyStage(d.ok() ? d->drop_stage : "instance-down");
            return route;
          }
          route.allowed = true;
          route.src_node = d->src_node;
          route.dst_node = d->dst_node;
          route.policy = d->egress_policy;
          return route;
        });
  }

  struct Flow {
    const char* name;
    const std::vector<InstanceId>* src;
    const std::vector<InstanceId>* dst;
    uint16_t port;
    double rps;
  };
  std::vector<Flow> Flows() const {
    return {{"spark->db", &spark_, &database_, Fig1Baseline::kDbPort, 4800},
            {"web_eu->spark", &web_eu_, &spark_, Fig1Baseline::kSparkPort,
             3200},
            {"analytics->db", &analytics_, &database_, Fig1Baseline::kDbPort,
             2400},
            {"spark->alerting", &spark_, &fig_.alerting,
             Fig1Baseline::kAlertPort, 800},
            {"alerting->spark", &fig_.alerting, &spark_,
             Fig1Baseline::kSparkPort, 400},
            {"web_us->spark", &fig_.web_us, &spark_, Fig1Baseline::kSparkPort,
             400}};
  }

  void AddPatterns(RequestWorkload& workload) {
    for (const Flow& f : Flows()) {
      workload.AddStreamingPattern(f.name, *f.src, *f.dst,
                                   RateCurve::Constant(f.rps),
                                   Connector(f.port));
    }
  }

  // One tenant edit, then route propagation. Three kinds, each toggling
  // its own 172.16.<k>.0/24 prefix (k advances after every undo):
  //   route (40% of the edits): add/remove a spark-VPC route to the hub,
  //   sg (20%): admit/revoke the prefix in the database SG,
  //   bgp (40%): originate/withdraw the prefix at the cloud-A hub, which
  //     changes what the mesh advertises.
  // An edit is in force only once propagated, so edit + propagation is one
  // sample of the end-to-end mutation latency. Sorted by cost the samples
  // run sg < route removal < route addition < bgp; these weights put the
  // median in the middle of the route additions (40-60%) rather than on a
  // boundary between two kinds, and the p99 inside the bgp edits.
  void Edit() {
    const int64_t start = NowNs();
    constexpr int kKindOfPick[5] = {1, 0, 0, 2, 2};  // sg, route x2, bgp x2
    const int kind = kKindOfPick[rng_.NextU64(5)];
    EditState& st = edit_state_[kind];
    const IpPrefix prefix = *IpPrefix::Parse(
        "172." + std::to_string(16 + kind) + "." +
        std::to_string(st.round % 256) + ".0/24");
    const SpeakerId hub = net_->FindTgw(handles_.tgw_a)->speaker();
    const VpcRouteTableId rt =
        net_->FindSubnet(net_->FindEniByInstance(fig_.spark[0])->subnet)
            ->route_table;
    if (kind == 0 && !st.active) {
      cp_.Call("vnet.add_route", [&] {
        return net_->AddRoute(
            rt, prefix,
            VpcRouteTarget{VpcRouteTargetKind::kTransitGateway,
                           handles_.tgw_a.value()});
      }, false);
    } else if (kind == 0) {
      cp_.Call("vnet.remove_route",
               [&] { return net_->RemoveRoute(rt, prefix); }, false);
    } else if (kind == 1 && !st.active) {
      SgRule rule;
      rule.direction = TrafficDirection::kIngress;
      rule.proto = Protocol::kTcp;
      rule.ports = PortRange::Single(15432);
      rule.peer = prefix;
      rule.description = "edit";
      cp_.Call("vnet.add_sg_rule",
               [&] { return net_->AddSgRule(handles_.sg_db, rule); }, false);
    } else if (kind == 1) {
      // The rule added last is the one this toggle owns.
      const size_t last =
          net_->FindSecurityGroup(handles_.sg_db)->rules().size() - 1;
      cp_.Call("vnet.remove_sg_rule",
               [&] { return net_->RemoveSgRule(handles_.sg_db, last); },
               false);
    } else if (!st.active) {
      cp_.Call("vnet.originate",
               [&] { return net_->bgp().Originate(hub, prefix); }, false);
    } else {
      cp_.Call("vnet.withdraw_origin",
               [&] { return net_->bgp().WithdrawOrigin(hub, prefix); },
               false);
    }
    if (st.active) {
      ++st.round;
    }
    st.active = !st.active;
    cp_.Call("routing.propagate",
             [&] { return Converged(net_->PropagateRoutes()); }, false);
    cp_.RecordMutationLatency(static_cast<double>(NowNs() - start) / 1e3);
  }

  void ScheduleEdit() {
    const SimDuration gap =
        SimDuration::Seconds(rng_.NextExponential(kEditRate));
    if (queue_.now() + gap >= edit_end_) {
      return;
    }
    queue_.ScheduleAfter(gap, [this] {
      Edit();
      ScheduleEdit();
    });
  }

  // Cached verdicts must agree with the uncached walk.
  void CheckVerdicts() {
    Rng pick(MixSeed(config_.seed, 77));
    const std::vector<Flow> flows = Flows();
    for (int i = 0; i < kVerdictChecks; ++i) {
      const Flow& f = flows[pick.NextU64(flows.size())];
      InstanceId src = (*f.src)[pick.NextU64(f.src->size())];
      InstanceId dst = (*f.dst)[pick.NextU64(f.dst->size())];
      auto cached = net_->Evaluate(src, dst, f.port, Protocol::kTcp);
      auto walked = net_->EvaluateUncached(src, dst, f.port, Protocol::kTcp);
      const bool same =
          cached.ok() == walked.ok() &&
          (!cached.ok() || (cached->delivered == walked->delivered &&
                            cached->drop_stage == walked->drop_stage &&
                            cached->dst_node == walked->dst_node));
      if (!same) {
        r_.violations.push_back("baseline verdict mismatch " +
                                std::to_string(src.value()) + "->" +
                                std::to_string(dst.value()));
        return;
      }
    }
  }

  const RepConfig& config_;
  ControlPlane cp_;
  Rng rng_;
  EventQueue queue_;
  Fig1World fig_;
  ConfigLedger ledger_;
  std::unique_ptr<BaselineNetwork> net_;
  Fig1Baseline handles_;
  std::vector<InstanceId> spark_, database_, web_eu_, analytics_;
  RepResult r_;
  BgpMesh::ConvergenceStats bgp_;
  struct EditState {
    bool active = false;  // the current prefix is applied
    uint64_t round = 0;
  };
  EditState edit_state_[3];  // route, sg, bgp
  SimTime edit_end_;
};

}  // namespace

std::string CheckBacklog(const std::vector<double>& inflight_samples) {
  const size_t quarter = inflight_samples.size() / 4;
  if (quarter == 0) {
    return "backlog guard: too few samples";
  }
  double first = 0, last = 0;
  for (size_t i = 0; i < quarter; ++i) {
    first += inflight_samples[i];
    last += inflight_samples[inflight_samples.size() - 1 - i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  if (last > first * (1 + kBacklogGrowthBound) + kBacklogSlack) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "backlog guard: in-flight mean grew from %.1f (first "
                  "quarter) to %.1f (last quarter)",
                  first, last);
    return buf;
  }
  return "";
}

const std::vector<std::string>& CoreVerbs() {
  static const std::vector<std::string> kVerbs = {
      "set_permit_list", "update_permit_list", "group_add",
      "group_remove",    "bind",               "unbind",
      "set_qos",         "request_eip",        "release_eip"};
  return kVerbs;
}

const std::vector<std::string>& VnetVerbs() {
  static const std::vector<std::string> kVerbs = {
      "attach_instance", "add_route",     "remove_route", "add_sg_rule",
      "remove_sg_rule",  "originate",     "withdraw_origin"};
  return kVerbs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"rpc_churn",
                                                  "bulk_contention",
                                                  "baseline_fig1"};
  return kNames;
}

RepResult RunWorkload(const std::string& workload, const RepConfig& config) {
  if (workload == "rpc_churn") {
    return RpcChurn(config).Run();
  }
  if (workload == "bulk_contention") {
    RepResult r = BulkContention(config, true).Run();
    if (config.tracer != nullptr) {
      // ShardExecutor does not publish its shard sims' water-fill
      // histograms, so a traced run replays the same inputs over one plain
      // FlowSim and reports that replay's figures as sim.replay.*. They
      // describe the replay, not the executor's shards.
      RepResult twin = BulkContention(config, false).Run();
      for (const char* key : {"reallocations", "realloc_s", "realloc_us_mean",
                              "flows_touched_per_realloc"}) {
        r.layer[std::string("sim.replay.") + key] =
            twin.layer[std::string("sim.") + key];
      }
      for (const std::string& v : twin.violations) {
        r.violations.push_back("FlowSim replay: " + v);
      }
    }
    return r;
  }
  if (workload == "baseline_fig1") {
    return BaselineFig1(config).Run();
  }
  RepResult r;
  r.violations.push_back("unknown workload " + workload);
  return r;
}

}  // namespace tenantnet::e2e
