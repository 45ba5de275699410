// PolicyLearner: from observed flows to minimal permit lists, and from
// declared intent to drift deltas.
//
// The paper's complaint is that tenants encode *intent* ("my web tier talks
// to my database on 5432") into mechanism (SGs, ACLs, route tables) and can
// never get the intent back out. This layer closes the loop in the
// declarative world:
//
//   Observe(flow)* -> Synthesize() -> ReachabilityIntent
//
// Synthesize() aggregates the observed sources of each (dst, proto, port)
// traffic class into the minimal exact prefix cover (buddy-merging via
// AggregatePrefixes — the closure of the synthesized entries admits exactly
// the observed sources, nothing more), so the learned policy is sound
// (admits every observed flow) and minimal (AddressCount of the cover
// equals the number of distinct observed sources).
//
// DetectDrift() compares a declared intent against what the control plane
// believes is installed (EdgeFilterBank::MasterEntriesOf) and emits
// per-destination deltas; Reconcile() pushes them through the normal
// UpdatePermitList mutator — no side channel into the enforcement state.
// The comparison is syntactic over prefix-form entries: endpoints whose
// lists use group references are reported as drift (the learner manages
// prefix-form lists only).

#ifndef TENANTNET_SRC_REACH_POLICY_LEARNER_H_
#define TENANTNET_SRC_REACH_POLICY_LEARNER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/core/api.h"

namespace tenantnet {

// Exact address count of a disjoint prefix set (Σ 2^(width-len), saturating
// for v6) — with AggregatePrefixes' output this equals the number of
// distinct observed sources iff the cover is minimal, which is how the
// property tests assert minimality without enumerating.
uint64_t AddressCount(const std::vector<IpPrefix>& prefixes);

// Declared reachability intent: per destination endpoint, the canonical
// (sorted, prefix-form) permit list that should be installed.
struct ReachabilityIntent {
  std::map<IpAddress, std::vector<PermitEntry>> permits;

  // Does the declared intent admit this flow? (Closure check, independent
  // of any installed state.)
  bool Admits(IpAddress src, IpAddress dst, uint16_t dst_port,
              Protocol proto) const;

  friend bool operator==(const ReachabilityIntent& a,
                         const ReachabilityIntent& b) = default;
};

// Sorts a permit list into the canonical form both Synthesize() and the
// drift comparison use: by (proto, port range, source prefix, group).
void CanonicalizePermits(std::vector<PermitEntry>& entries);

class PolicyLearner {
 public:
  // Records one observed flow (src must be the concrete source EIP; SIP
  // resolution happens before observation, as in the data plane).
  void Observe(const FiveTuple& flow);
  void ObserveAll(const std::vector<FiveTuple>& flows);

  size_t observed_flows() const { return observed_flows_; }
  size_t traffic_classes() const { return observed_.size(); }

  // The minimal sound intent for everything observed so far. Deterministic:
  // same observations (any order) -> identical intent.
  ReachabilityIntent Synthesize() const;

  // One destination's divergence between declared intent and installed
  // policy. `missing` must be added, `unexpected` removed, for the
  // installed list to equal `desired`.
  struct Drift {
    IpAddress dst;
    std::vector<PermitEntry> desired;
    std::vector<PermitEntry> missing;
    std::vector<PermitEntry> unexpected;
  };

  // Compares `intent` against the installed master lists of every intent
  // destination. Empty result == no drift.
  static std::vector<Drift> DetectDrift(const ReachabilityIntent& intent,
                                        const DeclarativeCloud& cloud);

  // Applies the deltas through the normal mutators (UpdatePermitList), so
  // reconciliation pays the same fan-out/latency as any tenant update.
  static Status Reconcile(const std::vector<Drift>& drifts,
                          DeclarativeCloud& cloud);

 private:
  struct ClassKey {
    IpAddress dst;
    Protocol proto = Protocol::kTcp;
    uint16_t port = 0;

    friend bool operator<(const ClassKey& a, const ClassKey& b) {
      if (a.dst != b.dst) return a.dst < b.dst;
      if (a.proto != b.proto) return a.proto < b.proto;
      return a.port < b.port;
    }
  };

  std::map<ClassKey, std::set<IpAddress>> observed_;
  size_t observed_flows_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_REACH_POLICY_LEARNER_H_
