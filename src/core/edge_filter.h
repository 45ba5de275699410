// Provider-edge permit-list enforcement ("public but default-off").
//
// Every endpoint address is globally routable, but the provider's ingress
// edges drop any flow whose source is not on the destination endpoint's
// tenant-supplied permit list (§4 Security). The list is replicated at
// every ingress edge of the hosting domain — the paper's "distributed and
// redundant" enforcement — so an update is a fan-out: one control-plane
// message per edge, each applied after a sampled install latency.
//
// The bank tracks exactly what E4b asks about: total filter entries per
// edge (memory), update fan-out (messages), and install latency until the
// last edge converges.
//
// Data-plane fast path: each installed list is compiled once into a
// CompiledPermitList (prefix entries in an LPM trie whose nodes carry the
// port/protocol scopes, group entries deduped into per-group scope sets),
// and verdicts are memoized in a generational VerdictCache. List applies
// bump the endpoint's epoch, group applies bump the bank-wide epoch, so
// cached verdicts self-invalidate without enumeration. Admits() is the
// cached entry point; AdmitsUncached() always evaluates the compiled
// matcher; AdmitsLinear() is the original O(entries) reference kept for
// equivalence tests and as the bench baseline.
//
// Memory model (PR 8, the million-endpoint diet): endpoints map to dense
// slots via an open-addressed AddrIndex, and everything per-endpoint is a
// struct-of-arrays column indexed by slot — the bank-wide verdict epoch and
// master version/set columns, and per edge a version column plus a 4-byte
// interned set id. Permit-entry lists themselves are refcounted and
// deduplicated in an InternPool: the master copy, every edge replica and
// every in-flight install of the same byte-identical list share one
// std::vector<PermitEntry> and one compiled matcher. Per endpoint per edge
// the steady-state cost is 12 bytes, vs a ~56-byte unordered_map node plus
// a private entries vector before the diet. Endpoint groups are a second
// instance of the same machinery: group ids get dense slots, member sets
// are interned once per bank as sorted address vectors, and an edge holds
// 12 bytes per group, so a group's footprint does not grow with the edge
// count. A removal leaves a versioned tombstone on each edge, so installs
// still in flight when it happens land as stale. ApproxBytes() feeds E10's
// bytes/endpoint records and the telemetry gauges.

#ifndef TENANTNET_SRC_CORE_EDGE_FILTER_H_
#define TENANTNET_SRC_CORE_EDGE_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/reconcile.h"
#include "src/common/rng.h"
#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/flow.h"
#include "src/net/verdict_cache.h"
#include "src/routing/lpm_trie.h"
#include "src/sim/event_queue.h"

namespace tenantnet {

class MetricRegistry;

// Endpoint groups: the §4 extension replacing the VPC's role as a grouping
// mechanism. A permit entry may reference a group instead of a prefix; the
// group's membership is replicated to the edges once and every referencing
// permit list follows automatically.
using EndpointGroupId = TypedId<struct EndpointGroupIdTag>;

// One permitted source pattern for an endpoint: either a source prefix or
// an endpoint group (when `source_group` is valid, `source` is ignored).
struct PermitEntry {
  IpPrefix source;                       // who may talk to the endpoint
  EndpointGroupId source_group;          // ... or this group's members
  PortRange dst_ports = PortRange::Any();
  Protocol proto = Protocol::kAny;

  // Ports/protocol part of the match (the source part needs edge state for
  // group expansion; see EdgeFilterBank::Admits).
  bool ScopeMatches(const FiveTuple& flow) const {
    if (proto != Protocol::kAny && proto != flow.proto) {
      return false;
    }
    return dst_ports.Contains(flow.dst_port);
  }

  // Full match for prefix-based entries only.
  bool Admits(const FiveTuple& flow) const {
    return !source_group.valid() && ScopeMatches(flow) &&
           source.Contains(flow.src);
  }

  friend bool operator==(const PermitEntry& a, const PermitEntry& b) = default;
};

// A permit list compiled for the data plane. Prefix entries live in an LPM
// trie whose node values hold the port/protocol scopes attached to that
// source prefix; group entries are deduplicated into one scope set per
// referenced group. Evaluation is a trie walk over the covering prefixes of
// flow.src plus one hash probe per distinct referenced group, instead of a
// linear scan of every entry.
class CompiledPermitList {
 public:
  // One (protocol, port-range) guard; `admit_all` short-circuits scope sets
  // that contain an unscoped entry (any proto, any port).
  struct ScopeSet {
    bool admit_all = false;
    std::vector<std::pair<Protocol, PortRange>> scopes;

    void Add(Protocol proto, PortRange ports);
    bool Matches(const FiveTuple& flow) const {
      if (admit_all) {
        return true;
      }
      for (const auto& [proto, ports] : scopes) {
        if ((proto == Protocol::kAny || proto == flow.proto) &&
            ports.Contains(flow.dst_port)) {
          return true;
        }
      }
      return false;
    }
  };

  explicit CompiledPermitList(const std::vector<PermitEntry>& entries);

  // True if any prefix entry covering flow.src has a matching scope.
  bool PrefixAdmits(const FiveTuple& flow) const {
    if (prefix_index_.entry_count() == 0) {
      return false;
    }
    return prefix_index_.ForEachMatch(
        flow.src, [&](const ScopeSet& set) { return !set.Matches(flow); });
  }

  // Distinct groups referenced by this list, with their merged scopes.
  const std::vector<std::pair<EndpointGroupId, ScopeSet>>& group_scopes()
      const {
    return group_scopes_;
  }

  // Matcher footprint (trie arena + scope heap), for E10 accounting.
  size_t ApproxBytes() const;

 private:
  LpmTrie<ScopeSet> prefix_index_;
  std::vector<std::pair<EndpointGroupId, ScopeSet>> group_scopes_;
};

// The durable image of a filter bank's control-plane intent: the master
// permit lists and group memberships plus the version counter. Edge
// (data-plane) state is deliberately absent — it survives a control-plane
// restart and is reconciled against this, not restored from it. All vectors
// are sorted, so equality is the fixed-point property the snapshot tests
// assert.
struct FilterBankSnapshot {
  struct List {
    IpAddress endpoint;
    uint64_t version = 0;
    std::vector<PermitEntry> entries;
    friend bool operator==(const List& a, const List& b) = default;
  };
  struct Group {
    EndpointGroupId group;
    uint64_t version = 0;
    std::vector<IpAddress> members;  // sorted
    friend bool operator==(const Group& a, const Group& b) = default;
  };
  std::vector<List> lists;    // sorted by endpoint
  std::vector<Group> groups;  // sorted by group id
  uint64_t next_version = 1;

  friend bool operator==(const FilterBankSnapshot& a,
                         const FilterBankSnapshot& b) = default;
};

struct EdgeFilterParams {
  // Control-plane install latency per edge: base + Exp(1/mean_extra).
  SimDuration install_base = SimDuration::Millis(5);
  SimDuration install_extra_mean = SimDuration::Millis(10);

  // Degraded-replication model (control-plane faults). While degraded, each
  // replication message is independently dropped with `degraded_drop_prob`
  // and retransmitted after `degraded_retransmit` (a retransmit may drop
  // again); deliveries that do land also pay `degraded_extra`. Drop/retry
  // outcomes are drawn up front at send time from the bank's seeded RNG, so
  // a replayed schedule produces byte-identical apply times.
  double degraded_drop_prob = 0.35;
  SimDuration degraded_retransmit = SimDuration::Millis(50);
  SimDuration degraded_extra = SimDuration::Millis(20);

  // Slot count of the bank's verdict cache (rounded up to a power of two;
  // storage is lazy, so untouched banks cost nothing).
  size_t verdict_cache_slots = 1 << 16;
};

// The replicated filter state of one enforcement domain (a provider or an
// on-prem site). Edges are registered up front; permit lists are keyed by
// destination endpoint address.
class EdgeFilterBank {
 public:
  // `queue` may be null: updates then apply immediately (tests, and scale
  // benches that account latency analytically).
  EdgeFilterBank(std::string domain, EventQueue* queue, uint64_t rng_seed,
                 EdgeFilterParams params = {});
  ~EdgeFilterBank();

  // Registers an ingress edge; returns its index.
  size_t AddEdge(const std::string& name);
  size_t edge_count() const { return edge_names_.size(); }
  const std::string& edge_name(size_t edge_index) const {
    return edge_names_[edge_index];
  }

  // Replaces the permit list for `endpoint` on every edge. Returns the
  // simulated time at which the *last* edge has applied it (== now when no
  // queue is attached). The list is interned — identical lists anywhere in
  // the bank share storage and a single compiled matcher.
  SimTime SetPermitList(IpAddress endpoint, std::vector<PermitEntry> entries);

  // Incremental update (API extension): adds `add` and removes entries
  // equal to members of `remove` from the endpoint's latest list, then
  // re-propagates. Same convergence semantics as SetPermitList.
  SimTime UpdatePermitList(IpAddress endpoint, std::vector<PermitEntry> add,
                           const std::vector<PermitEntry>& remove);

  // Removes the endpoint's list everywhere (endpoint released).
  void RemovePermitList(IpAddress endpoint);

  // Replaces a group's member set on every edge (same fan-out/latency
  // semantics as permit lists). Permit entries referencing the group pick
  // the change up with no per-list updates. Returns last-edge apply time.
  SimTime SetGroup(EndpointGroupId group, std::vector<IpAddress> members);
  void RemoveGroup(EndpointGroupId group);

  // Data plane: does edge `edge_index` admit this flow toward flow.dst?
  // Default-off: no installed list, or an empty list, admits nothing.
  // Memoized in the bank's verdict cache; epoch bumps on list/group applies
  // keep cached verdicts honest without enumeration.
  bool Admits(size_t edge_index, const FiveTuple& flow) const;

  // Same verdict via the compiled matcher, skipping the cache. The cache
  // miss path; exposed for benches and equivalence tests.
  bool AdmitsUncached(size_t edge_index, const FiveTuple& flow) const;

  // Same verdict via the original linear scan over the installed entries
  // (the pre-fast-path data plane). Reference implementation for the
  // equivalence property test and the bench speedup baseline. Both oracles
  // test group membership by binary search in the edge's member set.
  bool AdmitsLinear(size_t edge_index, const FiveTuple& flow) const;

  // True if the edge currently holds any list for `endpoint` (distinguishes
  // "default-off, nothing installed" from "installed but not permitted").
  bool HasList(size_t edge_index, IpAddress endpoint) const;

  // True if every edge has the same (latest) version for this endpoint.
  bool IsConverged(IpAddress endpoint) const;

  // --- Fault injection ------------------------------------------------------
  // Toggles degraded replication (see EdgeFilterParams). Only affects
  // updates sent while degraded; in-flight messages keep their schedule.
  // Timing-only: does not bump any verdict epoch.
  void SetReplicationDegraded(bool degraded) { degraded_ = degraded; }
  bool replication_degraded() const { return degraded_; }

  // --- Warm restart (see src/common/reconcile.h for the protocol) -----------

  // Captures the control-plane intent (master lists/groups + version
  // counter). Edge state is not captured: it survives restarts.
  FilterBankSnapshot Checkpoint() const;

  // Reinstates exactly what Checkpoint() captured, touching no edge. The
  // version counter is restored to max(snapshot, live) so re-pushes issued
  // after a restore are never mistaken for stale updates by edges that
  // already hold newer versions.
  void RestoreFromSnapshot(const FilterBankSnapshot& snap);

  // The control plane dies: the master copy is wiped, and mutating calls
  // (Set/Update/RemovePermitList, Set/RemoveGroup) buffer instead of
  // fanning out until CompleteRestart(). The data plane keeps answering
  // Admits() from the edges' last-programmed state. Idempotent.
  void BeginRestart();
  bool in_restart() const { return in_restart_; }

  // The control plane comes back. Both modes restore `snap`, drain the
  // buffered mutations, and leave the bank byte-identical (modulo version
  // numbers) to a from-scratch rebuild of the same intent; they differ in
  // data-plane churn:
  //   kWarm: buffered ops replay through the normal incremental fan-out,
  //     then a reconcile sweep compares every (endpoint, edge) pair against
  //     the master and re-pushes only mismatches — matching edges keep
  //     their verdict-cache epochs, and traffic never sees a default-off
  //     window.
  //   kCold: every edge is flushed (one global epoch bump — all cached
  //     verdicts die) and the full intent is re-fanned-out with install
  //     latency; until the re-installs land, default-off denies everything.
  ReconcileStats CompleteRestart(RestartMode mode,
                                 const FilterBankSnapshot& snap);

  // Version-free fingerprint of the semantic state, for the warm-vs-cold
  // differential oracle: the two completion modes assign different version
  // numbers but must land on identical filtering behavior. One line per
  // entry, "<tag> <key> [<payload>]", sorted by key; the tag is M / MG for
  // the master's lists / groups and E<i> / EG<i> for edge i's.
  std::string StateFingerprint() const;

  // --- Scale metrics --------------------------------------------------------
  uint64_t total_installed_entries() const;       // sum over edges
  uint64_t update_messages_sent() const { return messages_; }
  uint64_t endpoints_with_lists() const { return lists_.master_count; }
  uint64_t messages_dropped() const { return messages_dropped_; }

  // --- Memory accounting (E10) ---------------------------------------------
  // Resident footprint of the bank's replicated state: slot indexes, SoA
  // columns (bank-wide and per edge), interned permit sets including their
  // compiled matchers, and interned group member sets. Capacity-based.
  size_t ApproxBytes() const;
  // Distinct interned permit lists alive (master + edges + in flight).
  size_t distinct_permit_sets() const { return lists_.sets.size(); }
  // Distinct interned group member sets alive (master + edges + in flight).
  size_t distinct_member_sets() const { return groups_.sets.size(); }
  // Pre-sizes the slot index and columns for `n` endpoints.
  void ReserveEndpoints(size_t n);
  // Drops growth slack in the index/columns before measuring.
  void ShrinkToFit();
  // Writes the bank's memory gauges ("<domain>.filter.approx_bytes",
  // ".endpoint_slots", ".distinct_permit_sets", ".installed_entries") into
  // a telemetry registry.
  void PublishMemoryGauges(MetricRegistry& metrics) const;

  // --- Revision hooks (reach-verifier keying; see src/reach) ----------------
  // Per-endpoint verdict epoch: bumped whenever an edge applies a permit-
  // list change for this endpoint. 0 for endpoints the bank has never seen.
  // The incremental reachability verifier keys its per-destination cache on
  // this, so permit churn dirties only the touched destination's pairs.
  uint64_t EndpointVerdictEpoch(IpAddress endpoint) const {
    return EndpointEpochOf(endpoint);
  }
  // Bank-wide epoch bumped by group applies/removals (a group change can
  // flip any verdict whose permit list references the group).
  uint64_t global_verdict_epoch() const { return global_epoch_; }
  // The installed master permit list for `endpoint` (nullptr when none):
  // what the control plane believes is deployed. Drift detection compares
  // declared intent against this.
  const std::vector<PermitEntry>* MasterEntriesOf(IpAddress endpoint) const;
  // Endpoints currently holding a master list, sorted by address.
  std::vector<IpAddress> MasterEndpoints() const;

  // --- Verdict fast-path introspection -------------------------------------
  const VerdictCacheStats& verdict_cache_stats() const {
    return cache_.stats();
  }
  void ResetVerdictCacheStats() { cache_.ResetStats(); }
  // Drops all memoized verdicts (benches: cold-start measurement).
  void ClearVerdictCache() { cache_.Clear(); }
  // Distinct-list compilations performed. Interning dedupes: re-installing
  // a byte-identical list anywhere reuses the existing matcher for free.
  uint64_t permit_compiles() const { return compiles_; }
  uint64_t verdict_epoch() const { return gen_; }

 private:
  // An interned permit list. Equality/hash cover `entries` only; `compiled`
  // is a lazily built cache shared by every holder of the set.
  struct PermitSet {
    std::vector<PermitEntry> entries;
    std::shared_ptr<const CompiledPermitList> compiled;
    friend bool operator==(const PermitSet& a, const PermitSet& b) {
      return a.entries == b.entries;
    }
    std::string Fingerprint() const;
    size_t HeapBytes() const;
  };
  struct PermitSetHash {
    size_t operator()(const PermitSet& set) const {
      size_t h = 1469598103934665603ull;
      for (const PermitEntry& e : set.entries) {
        h = h * 1099511628211ull ^ std::hash<IpPrefix>{}(e.source);
        h = h * 1099511628211ull ^ e.source_group.value();
        h = h * 1099511628211ull ^
            (static_cast<size_t>(e.dst_ports.lo) << 16 | e.dst_ports.hi);
        h = h * 1099511628211ull ^ static_cast<size_t>(e.proto);
      }
      return h;
    }
  };
  // An interned group member set, sorted and deduplicated (membership is a
  // binary search).
  struct MemberSet {
    std::vector<IpAddress> members;
    friend bool operator==(const MemberSet&, const MemberSet&) = default;
    std::string Fingerprint() const;
    size_t HeapBytes() const { return members.capacity() * sizeof(IpAddress); }
  };
  struct MemberSetHash {
    size_t operator()(const MemberSet& set) const {
      size_t h = 1469598103934665603ull;
      for (IpAddress a : set.members) {
        h = h * 1099511628211ull ^ std::hash<IpAddress>{}(a);
      }
      return h;
    }
  };

  // Slot-indexed (version, interned set id) columns. Version 0 = never
  // written; a nonzero version with a nil set is a tombstone, which
  // outranks every install sent before the removal.
  struct Column {
    std::vector<uint64_t> version;
    std::vector<uint32_t> set;
    uint32_t SetAt(uint32_t slot) const {
      return slot < set.size() ? set[slot] : kNilId;
    }
    size_t ApproxBytes() const {
      return version.capacity() * sizeof(uint64_t) +
             set.capacity() * sizeof(uint32_t);
    }
  };

  // One kind of replicated intent: payloads interned once per bank and
  // shared by the master copy, every edge replica and every in-flight apply.
  // Permit lists (slot = endpoint) and group member sets (slot = group) are
  // the two instances; the replication protocol below is written once over
  // this type.
  template <typename Payload, typename Hash>
  struct Replica {
    InternPool<Payload, Hash> sets;
    Column master;
    std::vector<Column> edges;  // per edge, grown lazily to slot_count()
    uint64_t master_count = 0;  // slots holding a master set

    uint32_t slot_count() const {
      return static_cast<uint32_t>(master.set.size());
    }
    uint32_t AddSlot() {
      master.version.push_back(0);
      master.set.push_back(kNilId);
      return slot_count() - 1;
    }
    // Replaces the master entry (kNilId clears it), consuming the caller's
    // reference.
    void SetMaster(uint32_t slot, uint32_t set_id, uint64_t version) {
      if (master.set[slot] != kNilId) {
        sets.Release(master.set[slot]);
        --master_count;
      }
      master_count += set_id != kNilId ? 1 : 0;
      master.set[slot] = set_id;
      master.version[slot] = version;
    }
    // Writes (set_id, version) into edge `i` unless it already holds this
    // version or a newer one; consumes one reference on `set_id` either
    // way. Returns false for a stale write.
    bool Write(size_t i, uint32_t slot, uint32_t set_id, uint64_t version) {
      Column& edge = edges[i];
      if (edge.set.size() <= slot) {
        edge.version.resize(slot_count(), 0);
        edge.set.resize(slot_count(), kNilId);
      }
      const bool stale = edge.version[slot] >= version;
      const uint32_t drop = stale ? set_id : edge.set[slot];
      if (drop != kNilId) {
        sets.Release(drop);
      }
      if (!stale) {
        edge.set[slot] = set_id;
        edge.version[slot] = version;
      }
      return !stale;
    }
    // Every slot, in key order (`key_of` maps slot -> key).
    template <typename Key>
    std::vector<uint32_t> SlotsByKey(const std::vector<Key>& key_of) const {
      std::vector<uint32_t> out(slot_count());
      std::iota(out.begin(), out.end(), 0u);
      std::sort(out.begin(), out.end(), [&](uint32_t a, uint32_t b) {
        return key_of[a] < key_of[b];
      });
      return out;
    }
  };
  using ListReplica = Replica<PermitSet, PermitSetHash>;
  using GroupReplica = Replica<MemberSet, MemberSetHash>;

  struct VerdictKey {
    uint64_t edge = 0;
    IpAddress src;
    IpAddress dst;
    uint16_t dst_port = 0;
    Protocol proto = Protocol::kAny;

    friend bool operator==(const VerdictKey& a, const VerdictKey& b) = default;
  };
  struct VerdictKeyHash {
    size_t operator()(const VerdictKey& k) const {
      size_t h = std::hash<IpAddress>{}(k.src);
      h = h * 1099511628211ull ^ std::hash<IpAddress>{}(k.dst);
      h = h * 1099511628211ull ^
          (k.edge << 24 | static_cast<size_t>(k.dst_port) << 8 |
           static_cast<size_t>(k.proto));
      return h;
    }
  };

  // One intent mutation. Applied at once, or buffered while the control
  // plane is down and replayed at CompleteRestart().
  struct Op {
    enum class Kind : uint8_t {
      kSetList,
      kUpdateList,
      kRemoveList,
      kSetGroup,
      kRemoveGroup,
    };
    Kind kind = Kind::kSetList;
    IpAddress endpoint{};               // list ops
    std::vector<PermitEntry> entries{}; // kSetList; kUpdateList: adds
    std::vector<PermitEntry> removes{}; // kUpdateList only
    EndpointGroupId group{};            // group ops
    std::vector<IpAddress> members{};   // kSetGroup
  };

  SimTime Now() const {
    return queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  }
  // One message's delivery delay, including any degraded-mode drop/retry
  // rounds. Advances the RNG; all draws happen here, at send time.
  SimDuration SampleDeliveryLatency();

  // --- The replication protocol, once for both kinds of intent -------------
  // Sends one install to a subset of edges (the shared fan-out core of
  // Set*, the cold re-push and the warm reconcile). Consumes one reference
  // on `set_id` (the caller's), assigns a fresh version to the master slot,
  // and takes per-message references for the in-flight applies. Returns
  // last apply time.
  template <typename R>
  SimTime PushTo(R& r, uint32_t slot, uint32_t set_id,
                 const std::vector<size_t>& targets);
  // Removes the slot: master cleared, and one message carrying a
  // fresh-version tombstone to each target edge.
  template <typename R>
  void RemoveSlot(R& r, uint32_t slot, const std::vector<size_t>& targets);
  // Tombstones `slot` on the target edges; true if any of them held a set.
  template <typename R>
  bool Tombstone(R& r, uint32_t slot, uint64_t version,
                 const std::vector<size_t>& targets);
  // Re-pushes each master slot (in key order) whose version predates
  // `since` to the edges whose installed set differs; interned ids are
  // canonical, so an id compare is a content compare. `diff` counts the
  // compares in `checked`.
  template <typename R, typename Key>
  void PushLagging(R& r, const std::vector<Key>& key_of, uint64_t since,
                   bool diff, ReconcileStats& stats);
  // Removes slots still installed on some edge with no master intent (the
  // snapshot predates their removal).
  template <typename R>
  void SweepOrphans(R& r, ReconcileStats& stats);
  // Appends master and per-edge lines for one kind, sorted by key.
  template <typename R, typename Key>
  void AppendFingerprint(const R& r, const std::vector<Key>& key_of,
                         const std::string& tag, std::string& out) const;
  template <typename R>
  static size_t ReplicaBytes(const R& r);

  // What differs by kind. A list is compiled once per *distinct* list,
  // before its first send (interning means a byte-identical list anywhere
  // reuses the same immutable matcher), and its applies bump the endpoint's
  // epoch; group applies bump the bank-wide epoch.
  void Prepare(ListReplica&, uint32_t set_id);
  void Prepare(GroupReplica&, uint32_t) {}
  void Bump(const ListReplica&, uint32_t slot) { BumpEndpointEpoch(slot); }
  void Bump(const GroupReplica&, uint32_t) { BumpGlobalEpoch(); }

  std::vector<size_t> AllEdgeIndices() const;
  // Applies `op` now to every edge, or buffers it during a restart.
  SimTime Submit(Op op);
  // Applies `op` to the master and fans it out to `targets` (none: the
  // master only, as a cold completion folds buffered ops before its
  // rebuild). Returns last apply time.
  SimTime Apply(Op op, const std::vector<size_t>& targets);
  uint32_t InternMembers(std::vector<IpAddress> members);
  // Does edge `i`'s replica of `group` contain `addr`?
  bool GroupHas(size_t i, EndpointGroupId group, IpAddress addr) const;

  // Dense slot for an endpoint address, creating it (and growing the
  // bank-wide columns) on first sight. Slots are never recycled: the
  // verdict epoch column must survive list removal and restarts.
  uint32_t SlotFor(IpAddress endpoint);
  uint32_t SlotOf(IpAddress endpoint) const { return slots_.Lookup(endpoint); }
  uint32_t GroupSlotFor(EndpointGroupId group);
  uint32_t GroupSlotOf(EndpointGroupId group) const {
    auto it = group_slots_.find(group);
    return it == group_slots_.end() ? kNilId : it->second;
  }
  // slot -> address (transient, for the rare sorted sweeps/fingerprints).
  std::vector<IpAddress> SlotAddresses() const;

  // Epoch bumps, called at *apply* time (when edge state actually changes).
  void BumpEndpointEpoch(uint32_t slot) {
    ++slot_epoch_[slot];
    ++gen_;
  }
  void BumpGlobalEpoch() {
    ++global_epoch_;
    ++gen_;
  }
  uint64_t EndpointEpochOf(IpAddress endpoint) const {
    const uint32_t slot = slots_.Lookup(endpoint);
    return slot == kNilId ? 0 : slot_epoch_[slot];
  }

  std::string domain_;
  EventQueue* queue_;
  Rng rng_;
  EdgeFilterParams params_;
  bool degraded_ = false;
  uint64_t messages_dropped_ = 0;
  std::vector<std::string> edge_names_;

  // Endpoint slot index + the per-endpoint verdict epoch (survives
  // restarts), and the group slot index (slot -> id in group_ids_).
  AddrIndex slots_;
  std::vector<uint64_t> slot_epoch_;
  std::unordered_map<EndpointGroupId, uint32_t> group_slots_;
  std::vector<EndpointGroupId> group_ids_;

  ListReplica lists_;
  GroupReplica groups_;
  uint64_t next_version_ = 1;
  uint64_t messages_ = 0;

  // Restart protocol state (see reconcile.h).
  bool in_restart_ = false;
  std::vector<Op> pending_ops_;

  // Verdict fast path. Scoped epochs: list applies/removals bump the
  // endpoint's epoch, group applies/removals bump the bank-wide one; gen_
  // moves with every bump so validated slots hit with one integer compare.
  uint64_t global_epoch_ = 0;
  uint64_t gen_ = 0;
  uint64_t compiles_ = 0;
  mutable VerdictCache<VerdictKey, bool, VerdictKeyHash> cache_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_EDGE_FILTER_H_
