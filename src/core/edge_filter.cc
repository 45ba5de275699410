#include "src/core/edge_filter.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/telemetry/metrics.h"

namespace tenantnet {

void CompiledPermitList::ScopeSet::Add(Protocol proto, PortRange ports) {
  if (admit_all) {
    return;  // already admits every scope
  }
  if (proto == Protocol::kAny && ports.IsAny()) {
    admit_all = true;
    scopes.clear();
    scopes.shrink_to_fit();
    return;
  }
  for (const auto& [p, r] : scopes) {
    if (p == proto && r == ports) {
      return;  // exact duplicate scope
    }
  }
  scopes.emplace_back(proto, ports);
}

CompiledPermitList::CompiledPermitList(
    const std::vector<PermitEntry>& entries) {
  for (const PermitEntry& entry : entries) {
    if (entry.source_group.valid()) {
      ScopeSet* set = nullptr;
      for (auto& [group, scopes] : group_scopes_) {
        if (group == entry.source_group) {
          set = &scopes;
          break;
        }
      }
      if (set == nullptr) {
        set = &group_scopes_.emplace_back(entry.source_group, ScopeSet{})
                   .second;
      }
      set->Add(entry.proto, entry.dst_ports);
      continue;
    }
    ScopeSet* set = prefix_index_.ExactMatch(entry.source);
    if (set == nullptr) {
      prefix_index_.Insert(entry.source, ScopeSet{});
      set = prefix_index_.ExactMatch(entry.source);
    }
    set->Add(entry.proto, entry.dst_ports);
  }
}

size_t CompiledPermitList::ApproxBytes() const {
  size_t bytes =
      prefix_index_.ApproxBytes() +
      group_scopes_.capacity() * sizeof(group_scopes_[0]);
  prefix_index_.ForEach([&](const IpPrefix&, const ScopeSet& set) {
    bytes += set.scopes.capacity() * sizeof(std::pair<Protocol, PortRange>);
  });
  for (const auto& [group, set] : group_scopes_) {
    (void)group;
    bytes += set.scopes.capacity() * sizeof(std::pair<Protocol, PortRange>);
  }
  return bytes;
}

std::string EdgeFilterBank::PermitSet::Fingerprint() const {
  std::string out = "[";
  for (const PermitEntry& e : entries) {
    out += e.source.ToString() + "~g" + std::to_string(e.source_group.value()) +
           "~" + std::to_string(e.dst_ports.lo) + "-" +
           std::to_string(e.dst_ports.hi) + "~" +
           std::to_string(static_cast<int>(e.proto)) + ",";
  }
  return out + "]";
}

size_t EdgeFilterBank::PermitSet::HeapBytes() const {
  return entries.capacity() * sizeof(PermitEntry) +
         (compiled != nullptr ? compiled->ApproxBytes() : 0);
}

std::string EdgeFilterBank::MemberSet::Fingerprint() const {
  std::string out = "[";
  for (IpAddress m : members) {
    out += m.ToString() + ",";
  }
  return out + "]";
}

EdgeFilterBank::EdgeFilterBank(std::string domain, EventQueue* queue,
                               uint64_t rng_seed, EdgeFilterParams params)
    : domain_(std::move(domain)), queue_(queue), rng_(rng_seed),
      params_(params), cache_(params.verdict_cache_slots) {}

EdgeFilterBank::~EdgeFilterBank() = default;

size_t EdgeFilterBank::AddEdge(const std::string& name) {
  edge_names_.push_back(name);
  lists_.edges.emplace_back();
  groups_.edges.emplace_back();
  return edge_names_.size() - 1;
}

SimDuration EdgeFilterBank::SampleDeliveryLatency() {
  SimDuration latency =
      params_.install_base +
      SimDuration::Seconds(rng_.NextExponential(
          1.0 / std::max(1e-9, params_.install_extra_mean.ToSeconds())));
  if (!degraded_) {
    return latency;
  }
  // Each attempt (original and every retransmit) drops independently; the
  // loop resolves the whole retry chain now so the eventual apply time is a
  // pure function of RNG state at send time. The attempt cap keeps a
  // drop_prob of 1.0 finite (delivery after the worst-case chain).
  for (int attempt = 0;
       attempt < 64 && rng_.NextBool(params_.degraded_drop_prob); ++attempt) {
    ++messages_dropped_;
    ++messages_;  // the retransmit is one more control-plane message
    latency += params_.degraded_retransmit;
  }
  return latency + params_.degraded_extra;
}

uint32_t EdgeFilterBank::SlotFor(IpAddress endpoint) {
  uint32_t slot = slots_.Lookup(endpoint);
  if (slot == kNilId) {
    slot = lists_.AddSlot();
    slots_.Insert(endpoint, slot);
    slot_epoch_.push_back(0);
  }
  return slot;
}

uint32_t EdgeFilterBank::GroupSlotFor(EndpointGroupId group) {
  auto [it, inserted] = group_slots_.try_emplace(group, groups_.slot_count());
  if (inserted) {
    groups_.AddSlot();
    group_ids_.push_back(group);
  }
  return it->second;
}

std::vector<IpAddress> EdgeFilterBank::SlotAddresses() const {
  std::vector<IpAddress> addrs(slots_.size());
  slots_.ForEach([&](IpAddress addr, uint32_t slot) { addrs[slot] = addr; });
  return addrs;
}

const std::vector<PermitEntry>* EdgeFilterBank::MasterEntriesOf(
    IpAddress endpoint) const {
  const uint32_t slot = SlotOf(endpoint);
  if (slot == kNilId || lists_.master.set[slot] == kNilId) {
    return nullptr;
  }
  return &lists_.sets.Get(lists_.master.set[slot]).entries;
}

std::vector<IpAddress> EdgeFilterBank::MasterEndpoints() const {
  const std::vector<IpAddress> addrs = SlotAddresses();
  std::vector<IpAddress> out;
  for (uint32_t slot : lists_.SlotsByKey(addrs)) {
    if (lists_.master.set[slot] != kNilId) {
      out.push_back(addrs[slot]);
    }
  }
  return out;
}

void EdgeFilterBank::Prepare(ListReplica&, uint32_t set_id) {
  PermitSet& set = lists_.sets.GetMutable(set_id);
  if (set.compiled == nullptr) {
    set.compiled = std::make_shared<const CompiledPermitList>(set.entries);
    ++compiles_;
  }
}

uint32_t EdgeFilterBank::InternMembers(std::vector<IpAddress> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return groups_.sets.Intern(MemberSet{std::move(members)});
}

SimTime EdgeFilterBank::SetPermitList(IpAddress endpoint,
                                      std::vector<PermitEntry> entries) {
  return Submit({.kind = Op::Kind::kSetList,
                 .endpoint = endpoint,
                 .entries = std::move(entries)});
}

SimTime EdgeFilterBank::UpdatePermitList(
    IpAddress endpoint, std::vector<PermitEntry> add,
    const std::vector<PermitEntry>& remove) {
  // The merge happens at apply time: during a restart the master copy is
  // gone until CompleteRestart restores it, so the op is buffered whole.
  return Submit({.kind = Op::Kind::kUpdateList,
                 .endpoint = endpoint,
                 .entries = std::move(add),
                 .removes = remove});
}

void EdgeFilterBank::RemovePermitList(IpAddress endpoint) {
  Submit({.kind = Op::Kind::kRemoveList, .endpoint = endpoint});
}

SimTime EdgeFilterBank::SetGroup(EndpointGroupId group,
                                 std::vector<IpAddress> members) {
  return Submit({.kind = Op::Kind::kSetGroup,
                 .group = group,
                 .members = std::move(members)});
}

void EdgeFilterBank::RemoveGroup(EndpointGroupId group) {
  Submit({.kind = Op::Kind::kRemoveGroup, .group = group});
}

SimTime EdgeFilterBank::Submit(Op op) {
  if (in_restart_) {
    pending_ops_.push_back(std::move(op));
    return Now();
  }
  return Apply(std::move(op), AllEdgeIndices());
}

SimTime EdgeFilterBank::Apply(Op op, const std::vector<size_t>& targets) {
  switch (op.kind) {
    case Op::Kind::kUpdateList: {
      std::vector<PermitEntry> merged;
      if (const auto* master = MasterEntriesOf(op.endpoint)) {
        for (const PermitEntry& entry : *master) {
          if (std::find(op.removes.begin(), op.removes.end(), entry) ==
              op.removes.end()) {
            merged.push_back(entry);
          }
        }
      }
      for (PermitEntry& entry : op.entries) {
        if (std::find(merged.begin(), merged.end(), entry) == merged.end()) {
          merged.push_back(std::move(entry));
        }
      }
      op.entries = std::move(merged);
      [[fallthrough]];
    }
    case Op::Kind::kSetList: {
      const uint32_t set_id =
          lists_.sets.Intern(PermitSet{std::move(op.entries), nullptr});
      return PushTo(lists_, SlotFor(op.endpoint), set_id, targets);
    }
    case Op::Kind::kRemoveList:
      RemoveSlot(lists_, SlotOf(op.endpoint), targets);
      break;
    case Op::Kind::kSetGroup:
      return PushTo(groups_, GroupSlotFor(op.group),
                    InternMembers(std::move(op.members)), targets);
    case Op::Kind::kRemoveGroup:
      RemoveSlot(groups_, GroupSlotOf(op.group), targets);
      break;
  }
  return Now();
}

std::vector<size_t> EdgeFilterBank::AllEdgeIndices() const {
  std::vector<size_t> all(edge_names_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

// ---------------------------------------------------------------------------
// The replication protocol (both kinds of intent).
// ---------------------------------------------------------------------------

template <typename R>
SimTime EdgeFilterBank::PushTo(R& r, uint32_t slot, uint32_t set_id,
                               const std::vector<size_t>& targets) {
  const uint64_t version = next_version_++;
  r.SetMaster(slot, set_id, version);  // consumes the caller's reference
  if (!targets.empty()) {
    Prepare(r, set_id);
  }
  SimTime last_applied = Now();
  for (size_t i : targets) {
    ++messages_;
    r.sets.AddRef(set_id);  // in-flight reference, handed to the edge on apply
    auto apply = [this, &r, i, slot, set_id, version]() {
      if (r.Write(i, slot, set_id, version)) {
        Bump(r, slot);
      }
    };
    if (queue_ == nullptr) {
      apply();
      continue;
    }
    SimTime when = queue_->now() + SampleDeliveryLatency();
    last_applied = std::max(last_applied, when);
    queue_->ScheduleAt(when, apply);
  }
  return last_applied;
}

template <typename R>
bool EdgeFilterBank::Tombstone(R& r, uint32_t slot, uint64_t version,
                              const std::vector<size_t>& targets) {
  bool removed_any = false;
  for (size_t i : targets) {
    removed_any |= r.edges[i].SetAt(slot) != kNilId;
    r.Write(i, slot, kNilId, version);
  }
  return removed_any;
}

template <typename R>
void EdgeFilterBank::RemoveSlot(R& r, uint32_t slot,
                                const std::vector<size_t>& targets) {
  messages_ += targets.size();
  if (slot == kNilId) {
    return;  // never seen: nothing installed, nothing in flight
  }
  r.SetMaster(slot, kNilId, 0);
  // A fresh version, not a reset: installs still in flight are older and
  // must land as stale instead of resurrecting the removed state.
  if (Tombstone(r, slot, next_version_++, targets)) {
    Bump(r, slot);
  }
}

template <typename R, typename Key>
void EdgeFilterBank::PushLagging(R& r, const std::vector<Key>& key_of,
                                 uint64_t since, bool diff,
                                 ReconcileStats& stats) {
  for (uint32_t slot : r.SlotsByKey(key_of)) {
    if (r.master.set[slot] == kNilId || r.master.version[slot] >= since) {
      continue;  // no intent, or pushed by a replayed op (converging)
    }
    const uint32_t want = r.master.set[slot];
    std::vector<size_t> lagging;
    for (size_t i = 0; i < r.edges.size(); ++i) {
      stats.checked += diff ? 1 : 0;
      if (r.edges[i].SetAt(slot) != want) {
        lagging.push_back(i);
      }
    }
    if (!lagging.empty()) {
      stats.deltas_applied += lagging.size();
      r.sets.AddRef(want);  // PushTo consumes one reference
      stats.converged_at =
          std::max(stats.converged_at, PushTo(r, slot, want, lagging));
    }
  }
}

template <typename R>
void EdgeFilterBank::SweepOrphans(R& r, ReconcileStats& stats) {
  for (uint32_t slot = 0; slot < r.slot_count(); ++slot) {
    bool orphan = false;
    for (const Column& edge : r.edges) {
      if (edge.SetAt(slot) != kNilId) {
        ++stats.checked;
        orphan |= r.master.set[slot] == kNilId;
      }
    }
    if (orphan) {
      RemoveSlot(r, slot, AllEdgeIndices());
      ++stats.deltas_applied;
    }
  }
}

template <typename R, typename Key>
void EdgeFilterBank::AppendFingerprint(const R& r,
                                       const std::vector<Key>& key_of,
                                       const std::string& tag,
                                       std::string& out) const {
  const std::vector<uint32_t> order = r.SlotsByKey(key_of);
  auto lines = [&](const Column& column, const std::string& prefix) {
    for (uint32_t slot : order) {
      if (column.SetAt(slot) != kNilId) {
        std::ostringstream line;
        line << prefix << " " << key_of[slot] << " "
             << r.sets.Get(column.set[slot]).Fingerprint() << "\n";
        out += line.str();
      }
    }
  };
  lines(r.master, "M" + tag);
  for (size_t i = 0; i < r.edges.size(); ++i) {
    lines(r.edges[i], "E" + tag + std::to_string(i));
  }
}

template <typename R>
size_t EdgeFilterBank::ReplicaBytes(const R& r) {
  size_t bytes = r.sets.ApproxBytes() + r.master.ApproxBytes();
  for (const Column& edge : r.edges) {
    bytes += edge.ApproxBytes();
  }
  r.sets.ForEach([&](uint32_t, const auto& set, uint32_t) {
    bytes += set.HeapBytes();
  });
  return bytes;
}

// ---------------------------------------------------------------------------
// Data plane.
// ---------------------------------------------------------------------------

bool EdgeFilterBank::Admits(size_t edge_index, const FiveTuple& flow) const {
  VerdictKey key{edge_index, flow.src, flow.dst, flow.dst_port, flow.proto};
  if (const bool* cached = cache_.Lookup(
          key, gen_, global_epoch_,
          [&] { return EndpointEpochOf(flow.dst); })) {
    return *cached;
  }
  bool verdict = AdmitsUncached(edge_index, flow);
  cache_.Insert(key, gen_, global_epoch_, EndpointEpochOf(flow.dst), verdict);
  return verdict;
}

bool EdgeFilterBank::GroupHas(size_t i, EndpointGroupId group,
                              IpAddress addr) const {
  const uint32_t set_id = groups_.edges[i].SetAt(GroupSlotOf(group));
  if (set_id == kNilId) {
    return false;
  }
  const std::vector<IpAddress>& members = groups_.sets.Get(set_id).members;
  return std::binary_search(members.begin(), members.end(), addr);
}

bool EdgeFilterBank::AdmitsUncached(size_t edge_index,
                                    const FiveTuple& flow) const {
  const uint32_t set_id = lists_.edges[edge_index].SetAt(SlotOf(flow.dst));
  if (set_id == kNilId) {
    return false;  // default-off
  }
  const CompiledPermitList& compiled = *lists_.sets.Get(set_id).compiled;
  if (compiled.PrefixAdmits(flow)) {
    return true;
  }
  for (const auto& [group, scopes] : compiled.group_scopes()) {
    if (scopes.Matches(flow) && GroupHas(edge_index, group, flow.src)) {
      return true;
    }
  }
  return false;
}

bool EdgeFilterBank::AdmitsLinear(size_t edge_index,
                                  const FiveTuple& flow) const {
  const uint32_t set_id = lists_.edges[edge_index].SetAt(SlotOf(flow.dst));
  if (set_id == kNilId) {
    return false;  // default-off
  }
  for (const PermitEntry& entry : lists_.sets.Get(set_id).entries) {
    if (entry.source_group.valid()) {
      if (entry.ScopeMatches(flow) &&
          GroupHas(edge_index, entry.source_group, flow.src)) {
        return true;
      }
      continue;
    }
    if (entry.Admits(flow)) {
      return true;
    }
  }
  return false;
}

bool EdgeFilterBank::HasList(size_t edge_index, IpAddress endpoint) const {
  return lists_.edges[edge_index].SetAt(SlotOf(endpoint)) != kNilId;
}

bool EdgeFilterBank::IsConverged(IpAddress endpoint) const {
  const uint32_t slot = SlotOf(endpoint);
  if (slot == kNilId) {
    return true;
  }
  const bool present = lists_.master.set[slot] != kNilId;
  for (const Column& edge : lists_.edges) {
    // Present: every edge holds the latest version. Absent: gone everywhere.
    if (present ? slot >= edge.version.size() ||
                      edge.version[slot] != lists_.master.version[slot]
                : edge.SetAt(slot) != kNilId) {
      return false;
    }
  }
  return true;
}

uint64_t EdgeFilterBank::total_installed_entries() const {
  uint64_t total = 0;
  for (const Column& edge : lists_.edges) {
    for (uint32_t set_id : edge.set) {
      total += set_id == kNilId ? 0 : lists_.sets.Get(set_id).entries.size();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Memory accounting (E10).
// ---------------------------------------------------------------------------

size_t EdgeFilterBank::ApproxBytes() const {
  // The group index: a hash node (next pointer, id, slot) per group plus
  // the slot -> id column.
  const size_t group_index =
      group_slots_.size() * (sizeof(void*) + 2 * sizeof(uint64_t)) +
      group_ids_.capacity() * sizeof(EndpointGroupId);
  return slots_.ApproxBytes() + slot_epoch_.capacity() * sizeof(uint64_t) +
         group_index + ReplicaBytes(lists_) + ReplicaBytes(groups_);
}

void EdgeFilterBank::ReserveEndpoints(size_t n) {
  slots_.Reserve(n);
  slot_epoch_.reserve(n);
  lists_.master.version.reserve(n);
  lists_.master.set.reserve(n);
}

void EdgeFilterBank::ShrinkToFit() {
  slot_epoch_.shrink_to_fit();
  std::vector<Column*> columns = {&lists_.master};
  for (Column& edge : lists_.edges) {
    columns.push_back(&edge);
  }
  for (Column* column : columns) {
    column->version.shrink_to_fit();
    column->set.shrink_to_fit();
  }
}

void EdgeFilterBank::PublishMemoryGauges(MetricRegistry& metrics) const {
  metrics.GetGauge(domain_ + ".filter.approx_bytes")
      .Set(static_cast<double>(ApproxBytes()));
  metrics.GetGauge(domain_ + ".filter.endpoint_slots")
      .Set(static_cast<double>(slots_.size()));
  metrics.GetGauge(domain_ + ".filter.distinct_permit_sets")
      .Set(static_cast<double>(lists_.sets.size()));
  metrics.GetGauge(domain_ + ".filter.installed_entries")
      .Set(static_cast<double>(total_installed_entries()));
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

FilterBankSnapshot EdgeFilterBank::Checkpoint() const {
  FilterBankSnapshot snap;
  snap.next_version = next_version_;
  const std::vector<IpAddress> addrs = SlotAddresses();
  for (uint32_t slot : lists_.SlotsByKey(addrs)) {
    if (const uint32_t set_id = lists_.master.set[slot]; set_id != kNilId) {
      snap.lists.push_back({addrs[slot], lists_.master.version[slot],
                            lists_.sets.Get(set_id).entries});
    }
  }
  for (uint32_t slot : groups_.SlotsByKey(group_ids_)) {
    if (const uint32_t set_id = groups_.master.set[slot]; set_id != kNilId) {
      snap.groups.push_back({group_ids_[slot], groups_.master.version[slot],
                             groups_.sets.Get(set_id).members});
    }
  }
  return snap;
}

void EdgeFilterBank::RestoreFromSnapshot(const FilterBankSnapshot& snap) {
  for (uint32_t slot = 0; slot < lists_.slot_count(); ++slot) {
    lists_.SetMaster(slot, kNilId, 0);
  }
  for (uint32_t slot = 0; slot < groups_.slot_count(); ++slot) {
    groups_.SetMaster(slot, kNilId, 0);
  }
  for (const FilterBankSnapshot::List& list : snap.lists) {
    lists_.SetMaster(SlotFor(list.endpoint),
                     lists_.sets.Intern(PermitSet{list.entries, nullptr}),
                     list.version);
  }
  for (const FilterBankSnapshot::Group& group : snap.groups) {
    groups_.SetMaster(GroupSlotFor(group.group), InternMembers(group.members),
                      group.version);
  }
  // Monotonic across incarnations: edges may hold versions newer than the
  // snapshot (mutations applied between checkpoint and crash), and a push
  // numbered below them would be discarded as stale.
  next_version_ = std::max(next_version_, snap.next_version);
}

void EdgeFilterBank::BeginRestart() {
  if (in_restart_) {
    return;  // overlapping restarts extend the same outage
  }
  in_restart_ = true;
  // The process is gone: volatile master state with it. Edge (data-plane)
  // state and in-flight applies survive; next_version_ models a monotonic
  // version fountain (provider-durable), see RestoreFromSnapshot.
  RestoreFromSnapshot(FilterBankSnapshot{});
}

ReconcileStats EdgeFilterBank::CompleteRestart(RestartMode mode,
                                               const FilterBankSnapshot& snap) {
  ReconcileStats stats;
  stats.converged_at = Now();
  RestoreFromSnapshot(snap);
  in_restart_ = false;
  std::vector<Op> ops;
  ops.swap(pending_ops_);
  stats.replayed_mutations = ops.size();

  if (mode == RestartMode::kCold) {
    // Fold the buffered mutations into the master only, then flush every
    // edge and re-program the whole intent from scratch. Between the flush
    // and each re-install landing, default-off denies everything — the
    // cold-rebuild blackhole window E9b measures. The flush tombstones every
    // slot at one fresh version, so installs in flight from before the
    // restart land as stale.
    for (Op& op : ops) {
      Apply(std::move(op), {});
    }
    const std::vector<size_t> all = AllEdgeIndices();
    const uint64_t flush = next_version_++;
    bool flushed_any = false;
    for (uint32_t slot = 0; slot < lists_.slot_count(); ++slot) {
      flushed_any |= Tombstone(lists_, slot, flush, all);
    }
    for (uint32_t slot = 0; slot < groups_.slot_count(); ++slot) {
      flushed_any |= Tombstone(groups_, slot, flush, all);
    }
    if (flushed_any) {
      BumpGlobalEpoch();  // every cached verdict is now unfounded
    }
    PushLagging(lists_, SlotAddresses(), next_version_, false, stats);
    PushLagging(groups_, group_ids_, next_version_, false, stats);
    return stats;
  }

  // Warm: replay the buffered mutations through the normal incremental
  // paths (they fan out exactly what changed during the outage)...
  const uint64_t replay_start = next_version_;
  for (Op& op : ops) {
    stats.converged_at =
        std::max(stats.converged_at, Apply(std::move(op), AllEdgeIndices()));
  }
  // ...then diff the restored intent against live edge state and re-push
  // only mismatches. Edges already holding the intended set are left alone
  // — no message, no epoch bump, their cached verdicts survive. A replayed
  // removal tombstoned every edge, so the orphan sweep finds only state the
  // snapshot predates.
  PushLagging(lists_, SlotAddresses(), replay_start, true, stats);
  PushLagging(groups_, group_ids_, replay_start, true, stats);
  SweepOrphans(lists_, stats);
  SweepOrphans(groups_, stats);
  return stats;
}

std::string EdgeFilterBank::StateFingerprint() const {
  std::string out;
  AppendFingerprint(lists_, SlotAddresses(), "", out);
  AppendFingerprint(groups_, group_ids_, "G", out);
  return out;
}

}  // namespace tenantnet
