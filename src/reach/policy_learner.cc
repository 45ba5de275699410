#include "src/reach/policy_learner.h"

#include <algorithm>

#include "src/routing/route_table.h"

namespace tenantnet {

uint64_t AddressCount(const std::vector<IpPrefix>& prefixes) {
  uint64_t total = 0;
  for (const IpPrefix& p : prefixes) {
    const int free_bits = p.base().width() - p.length();
    if (free_bits >= 64) {
      return ~0ull;  // saturate (v6 hyper-prefixes; never hit by v4)
    }
    const uint64_t count = 1ull << free_bits;
    if (~0ull - total < count) {
      return ~0ull;
    }
    total += count;
  }
  return total;
}

bool ReachabilityIntent::Admits(IpAddress src, IpAddress dst,
                                uint16_t dst_port, Protocol proto) const {
  auto it = permits.find(dst);
  if (it == permits.end()) {
    return false;
  }
  FiveTuple flow;
  flow.src = src;
  flow.dst = dst;
  flow.dst_port = dst_port;
  flow.proto = proto;
  for (const PermitEntry& entry : it->second) {
    if (entry.Admits(flow)) {
      return true;
    }
  }
  return false;
}

namespace {

// The canonical strict weak order over permit entries, shared by the sort
// and the drift set-differences.
bool PermitLess(const PermitEntry& a, const PermitEntry& b) {
  if (a.proto != b.proto) return a.proto < b.proto;
  if (a.dst_ports.lo != b.dst_ports.lo) return a.dst_ports.lo < b.dst_ports.lo;
  if (a.dst_ports.hi != b.dst_ports.hi) return a.dst_ports.hi < b.dst_ports.hi;
  if (a.source.base() != b.source.base()) return a.source.base() < b.source.base();
  if (a.source.length() != b.source.length())
    return a.source.length() < b.source.length();
  return a.source_group.value() < b.source_group.value();
}

}  // namespace

void CanonicalizePermits(std::vector<PermitEntry>& entries) {
  std::sort(entries.begin(), entries.end(), PermitLess);
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
}

void PolicyLearner::Observe(const FiveTuple& flow) {
  ClassKey key{flow.dst, flow.proto, flow.dst_port};
  observed_[key].insert(flow.src);
  ++observed_flows_;
}

void PolicyLearner::ObserveAll(const std::vector<FiveTuple>& flows) {
  for (const FiveTuple& flow : flows) {
    Observe(flow);
  }
}

ReachabilityIntent PolicyLearner::Synthesize() const {
  ReachabilityIntent intent;
  for (const auto& [key, sources] : observed_) {
    std::vector<IpPrefix> hosts;
    hosts.reserve(sources.size());
    for (const IpAddress& src : sources) {
      hosts.push_back(IpPrefix::Host(src));
    }
    // Exact buddy aggregation: the cover's closure is exactly `sources`
    // (AggregatePrefixes merges only complete sibling pairs), so the
    // synthesized entry set is both sound and minimal.
    std::vector<IpPrefix> cover = AggregatePrefixes(hosts);
    std::vector<PermitEntry>& entries = intent.permits[key.dst];
    for (const IpPrefix& prefix : cover) {
      PermitEntry entry;
      entry.source = prefix;
      entry.dst_ports = PortRange::Single(key.port);
      entry.proto = key.proto;
      entries.push_back(entry);
    }
  }
  for (auto& [dst, entries] : intent.permits) {
    CanonicalizePermits(entries);
  }
  return intent;
}

std::vector<PolicyLearner::Drift> PolicyLearner::DetectDrift(
    const ReachabilityIntent& intent, const DeclarativeCloud& cloud) {
  std::vector<Drift> drifts;
  for (const auto& [dst, desired] : intent.permits) {
    std::vector<PermitEntry> installed;
    Result<DeclarativeCloud::DestinationEdge> edge =
        cloud.DestinationEdgeOf(dst);
    if (edge.ok()) {
      if (const std::vector<PermitEntry>* master =
              edge->bank->MasterEntriesOf(dst)) {
        installed = *master;
      }
    }
    CanonicalizePermits(installed);

    Drift drift;
    drift.dst = dst;
    drift.desired = desired;  // already canonical from Synthesize()
    std::set_difference(desired.begin(), desired.end(), installed.begin(),
                        installed.end(), std::back_inserter(drift.missing),
                        PermitLess);
    std::set_difference(installed.begin(), installed.end(), desired.begin(),
                        desired.end(), std::back_inserter(drift.unexpected),
                        PermitLess);
    if (!drift.missing.empty() || !drift.unexpected.empty()) {
      drifts.push_back(std::move(drift));
    }
  }
  return drifts;
}

Status PolicyLearner::Reconcile(const std::vector<Drift>& drifts,
                                DeclarativeCloud& cloud) {
  for (const Drift& drift : drifts) {
    TN_RETURN_IF_ERROR(
        cloud.UpdatePermitList(drift.dst, drift.missing, drift.unexpected)
            .status());
  }
  return Status::Ok();
}

}  // namespace tenantnet
