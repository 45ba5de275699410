#include "src/reach/reach.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/app/workload.h"
#include "src/core/verdict_walk.h"
#include "src/routing/route_table.h"

namespace tenantnet {

namespace {

std::unique_ptr<ReachTriageNode> Leaf(std::string recommendation) {
  return std::make_unique<ReachTriageNode>(std::move(recommendation));
}

std::unique_ptr<ReachTriageNode> Ask(std::string question,
                                     ReachTriageNode::Predicate predicate,
                                     std::unique_ptr<ReachTriageNode> yes,
                                     std::unique_ptr<ReachTriageNode> no) {
  return std::make_unique<ReachTriageNode>(std::move(question),
                                           std::move(predicate),
                                           std::move(yes), std::move(no));
}

// The questions once we know the destination is a concrete, allocated
// endpoint (directly, or the SIP's representative backend). Shared by both
// the SIP and EIP branches, so it is built twice.
std::unique_ptr<ReachTriageNode> DeliveryTail() {
  return Ask(
      "Is the destination instance running?",
      [](const ReachFacts& f) { return f.dst_running; },
      Ask("Did a filtering stage (permit list / SG / ACL / DPI) deny the "
          "flow?",
          [](const ReachFacts& f) { return f.filtered; },
          Leaf("add the source to the destination's permit list "
               "(set_permit_list / update_permit_list, or the baseline's "
               "SG/ACL rules)"),
          Ask("Did routing carry the flow to the destination?",
              [](const ReachFacts& f) { return f.routed; },
              Leaf("no denying mechanism recorded — re-run the query"),
              Leaf("install a route toward the destination (route tables, "
                   "IGW/NAT, peering or a TGW attachment)"))),
      Leaf("start the destination instance (the provider's "
           "NotifyInstanceUp restores SIP health automatically)"));
}

const ReachTriageNode& TriageTree() {
  static const ReachTriageNode* tree = BuildReachTriageTree().release();
  return *tree;
}

uint32_t Via(const std::string& label) { return RouteLabels().Intern(label); }

// A declarative stage's trace and deny ids, interned once from its name.
struct StageIds {
  uint32_t via = 0;
  uint32_t deny = 0;
};

const StageIds& IdsOf(DeclarativeStage stage) {
  constexpr size_t kCount = std::size(kDeclarativeStageNames);
  static const std::array<StageIds, kCount> kIds = [] {
    std::array<StageIds, kCount> ids;
    for (size_t i = 0; i < ids.size(); ++i) {
      const std::string name(kDeclarativeStageNames[i]);
      ids[i] = {Via(name), DenyStage(name)};
    }
    return ids;
  }();
  return kIds[static_cast<size_t>(stage)];
}

// Marks the verdict denied at a stage: the trace ends there, and the deny
// stage id comes from the same interner the workload counters use.
void DenyAt(ReachVerdict& verdict, StageIds ids) {
  verdict.reachable = false;
  verdict.all_backends = false;
  verdict.deny_stage = ids.deny;
  verdict.stages.push_back(ids.via);
}

void FinishTriage(ReachVerdict& verdict, const ReachFacts& facts) {
  if (!verdict.reachable) {
    verdict.remediation = TriageTree().Decide(facts).recommendation;
  }
}

}  // namespace

std::unique_ptr<ReachTriageNode> BuildReachTriageTree() {
  return Ask(
      "Is the source usable (running, with an EIP)?",
      [](const ReachFacts& f) { return f.src_usable; },
      Ask("Does any endpoint own the destination address?",
          [](const ReachFacts& f) { return f.dst_known; },
          Ask("Is the destination a SIP?",
              [](const ReachFacts& f) { return f.dst_is_sip; },
              Ask("Does the SIP have a healthy backend?",
                  [](const ReachFacts& f) { return f.sip_has_healthy_backend; },
                  DeliveryTail(),
                  Leaf("bind a healthy backend to the SIP (bind, or "
                       "NotifyInstanceUp for one that died)")),
              DeliveryTail()),
          Leaf("the destination address is unallocated — request_eip / "
               "request_sip it first")),
      Leaf("start the source instance and request_eip for it"));
}

std::string ReachVerdict::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      out << " -> ";
    }
    out << RouteLabels().Name(stages[i]);
  }
  if (reachable) {
    out << (all_backends ? " [OK all-backends]" : " [OK some-backends]");
  } else {
    out << " [DENY " << DenyStages().Name(deny_stage) << "]";
    if (!remediation.empty()) {
      out << " fix: " << remediation;
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Declarative engine.
// ---------------------------------------------------------------------------

namespace {

// Query effects for the verdict walk: read-only and uncached. Every healthy
// SIP binding is walked (∃ for `reachable`, ∀ for `all_backends`), the
// compiled matcher is asked without the verdict cache, and the walk lands
// in a ReachVerdict plus the ReachFacts the triage tree reads.
struct QueryEffects {
  void Hop(DeclarativeStage stage, std::string_view where = {}) {
    verdict.stages.push_back(where.empty()
                                 ? IdsOf(stage).via
                                 : Via(DeclarativeHopLabel(stage, where)));
  }

  // Stages are declared in walk order, so a denial at an endpoint stage
  // means every endpoint check before it passed.
  void Deny(DeclarativeStage stage, const FiveTuple&, std::string_view = {}) {
    if (stage >= DeclarativeStage::kNoSuchEndpoint) {
      facts.dst_known = stage > DeclarativeStage::kNoSuchEndpoint;
      facts.dst_running = stage > DeclarativeStage::kInstanceDown;
      facts.filtered = stage == DeclarativeStage::kEdgeFilter;
    }
    DenyAt(verdict, IdsOf(stage));
  }

  // Bindings(), not Resolve(): the data plane's pick counter must not move
  // because someone asked a question. The reported trace is the first
  // reachable backend's walk (or the first backend's, when none reach) —
  // deterministic in binding order.
  template <typename Walk>
  Status ForEachBackend(IpAddress sip, Walk walk) {
    facts.dst_is_sip = facts.dst_known = true;
    Result<std::vector<SipLoadBalancer::Binding>> bindings =
        cloud->sip_lb().Bindings(sip);
    if (!bindings.ok()) {
      return bindings.status();
    }
    std::erase_if(*bindings, [](const auto& b) { return !b.healthy; });
    if (bindings->empty()) {
      return FailedPreconditionError("no healthy backend");
    }
    facts.sip_has_healthy_backend = true;
    size_t reached = 0;
    std::optional<QueryEffects> repr;
    for (const SipLoadBalancer::Binding& binding : *bindings) {
      QueryEffects branch = *this;
      walk(branch, binding.eip);
      reached += branch.verdict.reachable ? 1 : 0;
      if (!repr || (branch.verdict.reachable && !repr->verdict.reachable)) {
        repr = std::move(branch);
      }
    }
    *this = std::move(*repr);
    verdict.reachable = reached > 0;
    verdict.all_backends = reached == bindings->size();
    return Status::Ok();
  }

  bool Admits(const DeclarativeCloud::DestinationEdge& edge,
              const FiveTuple& flow) {
    return edge.bank->AdmitsUncached(edge.edge_index, flow);
  }

  // EIP destinations are exact: the ∀-bound collapses onto `reachable`.
  void Deliver(const EipRecord&) {
    verdict.reachable = verdict.all_backends = true;
    verdict.stages.push_back(IdsOf(DeclarativeStage::kDeliver).via);
  }

  const DeclarativeCloud* cloud = nullptr;
  ReachVerdict verdict = {};
  ReachFacts facts = {};
};

}  // namespace

ReachVerdict DeclarativeReachEngine::CanReach(InstanceId src, IpAddress dst,
                                              uint16_t dst_port,
                                              Protocol proto) const {
  QueryEffects fx{cloud_};
  FiveTuple flow{{}, dst, 0, dst_port, proto};  // permits ignore src_port
  const Instance* src_inst = world_->FindInstance(src);
  std::optional<IpAddress> src_eip = cloud_->EipOf(src);
  if (src_inst == nullptr || !src_inst->running) {
    fx.Deny(DeclarativeStage::kSrcDown, flow);
  } else if (!src_eip.has_value()) {
    fx.Deny(DeclarativeStage::kNoEip, flow);
  } else {
    flow.src = *src_eip;
    fx.facts.src_usable = true;
    fx.Hop(DeclarativeStage::kSrcEip);
    WalkDeclarativeVerdict(*world_, *cloud_, flow, fx);
  }
  FinishTriage(fx.verdict, fx.facts);
  return std::move(fx.verdict);
}

// ---------------------------------------------------------------------------
// Baseline engine.
// ---------------------------------------------------------------------------

namespace {

// Maps the fabric's drop-stage vocabulary onto the triage facts: the
// filtering stages by exact name; every other stage (route tables, gateways,
// peering, return routes, BGP, DX/VPN, internet) means the flow was not
// carried to the destination.
void BaselineFactsFromDrop(std::string_view stage, ReachFacts& facts) {
  static constexpr std::array<std::string_view, 6> kFilterStages = {
      "sg-egress",   "sg-ingress", "acl-egress",
      "acl-ingress", "acl-return", "firewall"};
  if (std::ranges::find(kFilterStages, stage) != kFilterStages.end()) {
    facts.filtered = true;
  } else {
    facts.routed = false;
  }
}

}  // namespace

ReachVerdict BaselineReachEngine::CanReach(InstanceId src, InstanceId dst,
                                           uint16_t dst_port,
                                           Protocol proto) const {
  ReachVerdict verdict;
  ReachFacts facts;
  facts.dst_known = true;  // instance-addressed query

  Result<BaselineDelivery> result =
      net_->EvaluateUncached(src, dst, dst_port, proto);
  if (!result.ok()) {
    // The fabric refuses up front when either instance is unknown or down;
    // the message distinguishes the two.
    const std::string& msg = result.status().message();
    if (msg.find("unknown") != std::string::npos) {
      facts.dst_known = false;
      DenyAt(verdict, IdsOf(DeclarativeStage::kNoSuchEndpoint));
    } else {
      facts.dst_running = false;
      facts.src_usable = true;
      DenyAt(verdict, IdsOf(DeclarativeStage::kInstanceDown));
    }
    FinishTriage(verdict, facts);
    return verdict;
  }
  facts.src_usable = true;
  facts.dst_running = true;

  const BaselineDelivery& d = *result;
  for (const std::string& hop : d.logical_hops) {
    verdict.stages.push_back(Via(hop));
  }
  if (d.delivered) {
    verdict.reachable = true;
    verdict.all_backends = true;  // instance destinations are exact
    verdict.stages.push_back(IdsOf(DeclarativeStage::kDeliver).via);
    return verdict;
  }
  const std::string stage = d.drop_stage.empty() ? "denied" : d.drop_stage;
  BaselineFactsFromDrop(stage, facts);
  DenyAt(verdict, {Via(stage), DenyStage(stage)});
  FinishTriage(verdict, facts);
  return verdict;
}

// ---------------------------------------------------------------------------
// Declarative incremental verifier.
// ---------------------------------------------------------------------------

void DeclarativeReachVerifier::SetPairs(std::vector<Pair> pairs) {
  pairs_ = std::move(pairs);
  verdicts_.assign(pairs_.size(), ReachVerdict{});
  keys_.assign(pairs_.size(), DepKey{});
}

DeclarativeReachVerifier::DepKey DeclarativeReachVerifier::KeyFor(
    const Pair& pair) const {
  DepKey key;
  key.valid = true;
  key.endpoint_rev = cloud_->endpoint_revision();
  key.instance_epoch = world_->instance_state_epoch();

  // Hash lookups only — this must stay far cheaper than a verify, or the
  // incremental sweep has no headroom to win.
  auto fold_dst = [&](IpAddress addr) {
    Result<DeclarativeCloud::DestinationEdge> edge =
        cloud_->DestinationEdgeOf(addr);
    if (edge.ok()) {
      key.dst_epoch += edge->bank->EndpointVerdictEpoch(addr);
      key.group_epoch += edge->bank->global_verdict_epoch();
    }
  };
  if (cloud_->IsSip(pair.dst)) {
    // Coarser on purpose: the balancer's revision covers binding/health
    // churn on *any* SIP. Permit churn — the common mutation — still keys
    // per destination endpoint below.
    key.sip_rev = cloud_->sip_lb().config_revision();
    Result<std::vector<SipLoadBalancer::Binding>> bindings =
        cloud_->sip_lb().Bindings(pair.dst);
    if (bindings.ok()) {
      for (const SipLoadBalancer::Binding& b : *bindings) {
        fold_dst(b.eip);
      }
    }
  } else {
    fold_dst(pair.dst);
  }
  return key;
}

ReachSweepStats DeclarativeReachVerifier::VerifyAll() {
  keys_.assign(pairs_.size(), DepKey{});  // invalid keys recompute
  return Revalidate();
}

ReachSweepStats DeclarativeReachVerifier::Revalidate() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    DepKey key = KeyFor(p);
    if (keys_[i].valid && key == keys_[i]) {
      ++stats.reused;
      continue;
    }
    keys_[i] = key;
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  return stats;
}

std::string DeclarativeReachVerifier::Fingerprint() const {
  std::ostringstream out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    out << "src=" << p.src.value() << " dst=" << p.dst.ToString()
        << " port=" << p.dst_port << " proto=" << static_cast<int>(p.proto)
        << " :: " << verdicts_[i].ToString() << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline incremental verifier.
// ---------------------------------------------------------------------------

void BaselineReachVerifier::SetPairs(std::vector<Pair> pairs) {
  pairs_ = std::move(pairs);
  verdicts_.assign(pairs_.size(), ReachVerdict{});
  verified_once_ = false;
  verified_gen_ = 0;
}

ReachSweepStats BaselineReachVerifier::VerifyAll() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  verified_gen_ = net_->verdict_generation();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  verified_once_ = true;
  return stats;
}

ReachSweepStats BaselineReachVerifier::Revalidate() {
  const uint64_t gen = net_->verdict_generation();
  if (verified_once_ && gen == verified_gen_) {
    ReachSweepStats stats;
    stats.pairs = pairs_.size();
    stats.reused = pairs_.size();
    return stats;
  }
  // Any change anywhere re-verifies everything: the baseline verdict
  // entangles route tables, SG/ACL state, gateway wiring and BGP state with
  // no per-pair scoping to key on.
  return VerifyAll();
}

std::string BaselineReachVerifier::Fingerprint() const {
  std::ostringstream out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    out << "src=" << p.src.value() << " dst=" << p.dst.value()
        << " port=" << p.dst_port << " proto=" << static_cast<int>(p.proto)
        << " :: " << verdicts_[i].ToString() << "\n";
  }
  return out.str();
}

}  // namespace tenantnet
