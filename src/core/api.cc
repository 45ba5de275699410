#include "src/core/api.h"

#include <cassert>
#include <string_view>

#include "src/core/verdict_walk.h"

namespace tenantnet {

DeclarativeCloud::DeclarativeCloud(CloudWorld& world, ConfigLedger& ledger,
                                   EventQueue* queue,
                                   DeclarativeParams params)
    : world_(&world), ledger_(&ledger), queue_(queue), params_(params),
      qos_(params.quota) {}

DeclarativeCloud::ProviderState& DeclarativeCloud::Provider(ProviderId id) {
  auto it = providers_.find(id);
  if (it != providers_.end()) {
    return it->second;
  }
  const ProviderSite& site = world_->provider(id);
  ProviderState state;
  // The provider's public space is split: front half for EIPs, back half
  // for SIPs (a provider implementation detail tenants never see).
  auto halves = site.address_space.Split();
  assert(halves.ok());
  // Lowest-first reuse keeps the live EIP range dense, which is what lets
  // the provider aggregate its table under churn (E4a's ablation).
  state.eip_pool = std::make_unique<HostAllocator>(
      halves->first, HostAllocator::ReusePolicy::kLowestFirst);
  state.sip_pool = std::make_unique<HostAllocator>(halves->second);
  state.filters = std::make_unique<EdgeFilterBank>(
      site.name, queue_, params_.rng_seed ^ id.value(), params_.filter);
  for (RegionId region_id : site.regions) {
    const RegionSite& region = world_->region(region_id);
    size_t edge = state.filters->AddEdge(site.name + ":" + region.name);
    state.edge_index[region_id] = edge;
    // Quota enforcement points: one per zone of each region.
    for (const ZoneSite& zone : region.zones) {
      qos_.RegisterPoint(region_id, zone.name);
    }
  }
  ReplayGroups(*state.filters);
  return providers_.emplace(id, std::move(state)).first->second;
}

DeclarativeCloud::OnPremState& DeclarativeCloud::OnPrem(OnPremId id) {
  auto it = on_prems_.find(id);
  if (it != on_prems_.end()) {
    return it->second;
  }
  const OnPremSite& site = world_->on_prem(id);
  OnPremState state;
  // Public default-off space for the site's endpoints (its ISP block).
  IpPrefix pool = *IpPrefix::Create(
      IpAddress::V4(198, 51, static_cast<uint8_t>(id.value() % 256), 0), 24);
  state.eip_pool = std::make_unique<HostAllocator>(
      pool, HostAllocator::ReusePolicy::kLowestFirst);
  state.filters = std::make_unique<EdgeFilterBank>(
      site.name, queue_, params_.rng_seed ^ (id.value() << 32),
      params_.filter);
  state.filters->AddEdge(site.name + ":router");
  ReplayGroups(*state.filters);
  return on_prems_.emplace(id, std::move(state)).first->second;
}

// Late-created domains replay existing group state.
void DeclarativeCloud::ReplayGroups(EdgeFilterBank& filters) const {
  for (const auto& [group, record] : groups_) {
    filters.SetGroup(group, std::vector<IpAddress>(record.members.begin(),
                                                   record.members.end()));
  }
}

EdgeFilterBank& DeclarativeCloud::BankOf(const EipRecord& record) {
  return record.on_prem.valid() ? *OnPrem(record.on_prem).filters
                                : *Provider(record.provider).filters;
}

void DeclarativeCloud::InstallEipRoute(IpAddress eip, ProviderId provider_id,
                                       RegionId region) {
  ProviderState& provider = Provider(provider_id);
  // The provider carries a host route; how it aggregates is its business.
  if (provider.rib.Install(
          IpPrefix::Host(eip),
          RouteEntry{world_->region(region).edge_node, RouteOrigin::kLocal, 0,
                     RouteLabels().Intern("eip")})) {
    ++provider.rib_revision;
  }
}

// --------------------------------------------------------------------------
// Table 2.
// --------------------------------------------------------------------------

Result<IpAddress> DeclarativeCloud::RequestEip(InstanceId vm) {
  const Instance* inst = world_->FindInstance(vm);
  if (inst == nullptr || !inst->running) {
    return NotFoundError("no such running instance");
  }
  if (eip_by_instance_.count(vm) > 0) {
    return AlreadyExistsError("instance already has an EIP");
  }

  EipRecord record;
  record.instance = vm;
  record.tenant = inst->tenant;
  record.host_node = inst->host_node;
  record.zone_index = inst->zone_index;

  if (inst->on_prem.valid()) {
    record.on_prem = inst->on_prem;
    OnPremState& site = OnPrem(inst->on_prem);
    TN_ASSIGN_OR_RETURN(record.addr, site.eip_pool->Allocate());
  } else {
    record.provider = inst->provider;
    record.region = inst->region;
    TN_ASSIGN_OR_RETURN(record.addr,
                        Provider(inst->provider).eip_pool->Allocate());
    InstallEipRoute(record.addr, inst->provider, inst->region);
  }

  ledger_->ApiCall("request_eip", "vm=" + std::to_string(vm.value()));
  IpAddress addr = record.addr;
  eips_.emplace(addr, record);
  eip_by_instance_[vm] = addr;
  ++endpoint_revision_;
  return addr;
}

Status DeclarativeCloud::ReleaseEip(IpAddress eip) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  const EipRecord& record = it->second;
  BankOf(record).RemovePermitList(eip);
  if (record.on_prem.valid()) {
    TN_RETURN_IF_ERROR(OnPrem(record.on_prem).eip_pool->Release(eip));
  } else {
    ProviderState& provider = Provider(record.provider);
    TN_RETURN_IF_ERROR(provider.rib.Withdraw(IpPrefix::Host(eip)));
    ++provider.rib_revision;
    TN_RETURN_IF_ERROR(provider.eip_pool->Release(eip));
  }
  sip_lb_.UnbindEverywhere(eip);
  // Drop the address from any groups it belonged to (provider-side
  // hygiene: a recycled address must not inherit old permissions).
  for (auto& [group, record] : groups_) {
    if (record.members.erase(eip) > 0) {
      PropagateGroup(group);
    }
  }
  eip_by_instance_.erase(record.instance);
  eips_.erase(it);
  ledger_->ApiCall("release_eip", eip.ToString());
  ++endpoint_revision_;
  return Status::Ok();
}

Result<IpAddress> DeclarativeCloud::RequestSip(TenantId tenant,
                                               ProviderId provider_id) {
  ProviderState& provider = Provider(provider_id);
  TN_ASSIGN_OR_RETURN(IpAddress sip, provider.sip_pool->Allocate());
  sips_.emplace(sip, SipRecord{sip, tenant, provider_id});
  TN_RETURN_IF_ERROR(sip_lb_.AddSip(sip));
  ledger_->ApiCall("request_sip", sip.ToString());
  ++endpoint_revision_;
  return sip;
}

Status DeclarativeCloud::ReleaseSip(IpAddress sip) {
  auto it = sips_.find(sip);
  if (it == sips_.end()) {
    return NotFoundError("no such SIP");
  }
  TN_RETURN_IF_ERROR(sip_lb_.RemoveSip(sip));
  TN_RETURN_IF_ERROR(Provider(it->second.provider).sip_pool->Release(sip));
  sips_.erase(it);
  ledger_->ApiCall("release_sip", sip.ToString());
  ++endpoint_revision_;
  return Status::Ok();
}

Status DeclarativeCloud::Bind(IpAddress eip, IpAddress sip, double weight) {
  auto eit = eips_.find(eip);
  if (eit == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  auto sit = sips_.find(sip);
  if (sit == sips_.end()) {
    return NotFoundError("no such SIP");
  }
  if (eit->second.tenant != sit->second.tenant) {
    return PermissionDeniedError("EIP and SIP belong to different tenants");
  }
  TN_RETURN_IF_ERROR(sip_lb_.Bind(eip, sip, weight));
  ledger_->ApiCall("bind", eip.ToString() + "->" + sip.ToString());
  if (weight != 1.0) {
    ledger_->SetParameter("bind", "weight");
  }
  return Status::Ok();
}

Status DeclarativeCloud::Unbind(IpAddress eip, IpAddress sip) {
  TN_RETURN_IF_ERROR(sip_lb_.Unbind(eip, sip));
  ledger_->ApiCall("unbind", eip.ToString() + "-x->" + sip.ToString());
  return Status::Ok();
}

Result<SimTime> DeclarativeCloud::SetPermitList(
    IpAddress eip, std::vector<PermitEntry> entries) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  for (const PermitEntry& entry : entries) {
    if (entry.source_group.valid() &&
        groups_.count(entry.source_group) == 0) {
      return NotFoundError("permit entry references an unknown group");
    }
  }
  ledger_->ApiCall("set_permit_list",
                   eip.ToString() + " (" + std::to_string(entries.size()) +
                       " entries)");
  for (size_t i = 0; i < entries.size(); ++i) {
    ledger_->SetParameter("set_permit_list", "entry");
  }
  return BankOf(it->second).SetPermitList(eip, std::move(entries));
}

Result<SimTime> DeclarativeCloud::UpdatePermitList(
    IpAddress eip, std::vector<PermitEntry> add,
    std::vector<PermitEntry> remove) {
  auto it = eips_.find(eip);
  if (it == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  ledger_->ApiCall("update_permit_list",
                   eip.ToString() + " (+" + std::to_string(add.size()) +
                       "/-" + std::to_string(remove.size()) + ")");
  for (size_t i = 0; i < add.size() + remove.size(); ++i) {
    ledger_->SetParameter("update_permit_list", "entry");
  }
  return BankOf(it->second).UpdatePermitList(eip, std::move(add), remove);
}

// --------------------------------------------------------------------------
// Endpoint groups.
// --------------------------------------------------------------------------

void DeclarativeCloud::PropagateGroup(EndpointGroupId group) {
  auto it = groups_.find(group);
  std::vector<IpAddress> members;
  if (it != groups_.end()) {
    members.assign(it->second.members.begin(), it->second.members.end());
  }
  for (auto& [id, provider] : providers_) {
    provider.filters->SetGroup(group, members);
  }
  for (auto& [id, site] : on_prems_) {
    site.filters->SetGroup(group, members);
  }
}

Result<EndpointGroupId> DeclarativeCloud::CreateEndpointGroup(
    TenantId tenant, const std::string& name) {
  EndpointGroupId id = group_ids_.Next();
  groups_.emplace(id, GroupRecord{tenant, name, {}});
  ledger_->ApiCall("create_group", name);
  return id;
}

Status DeclarativeCloud::DeleteEndpointGroup(EndpointGroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  groups_.erase(it);
  for (auto& [id, provider] : providers_) {
    provider.filters->RemoveGroup(group);
  }
  for (auto& [id, site] : on_prems_) {
    site.filters->RemoveGroup(group);
  }
  ledger_->ApiCall("delete_group", std::to_string(group.value()));
  return Status::Ok();
}

Status DeclarativeCloud::AddToEndpointGroup(EndpointGroupId group,
                                            IpAddress eip) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  auto eit = eips_.find(eip);
  if (eit == eips_.end()) {
    return NotFoundError("no such EIP");
  }
  if (eit->second.tenant != it->second.tenant) {
    return PermissionDeniedError("EIP belongs to a different tenant");
  }
  it->second.members.insert(eip);
  PropagateGroup(group);
  ledger_->ApiCall("group_add", eip.ToString());
  return Status::Ok();
}

Status DeclarativeCloud::RemoveFromEndpointGroup(EndpointGroupId group,
                                                 IpAddress eip) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  if (it->second.members.erase(eip) == 0) {
    return NotFoundError("EIP not in group");
  }
  PropagateGroup(group);
  ledger_->ApiCall("group_remove", eip.ToString());
  return Status::Ok();
}

Result<std::vector<IpAddress>> DeclarativeCloud::GroupMembers(
    EndpointGroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return NotFoundError("no such group");
  }
  return std::vector<IpAddress>(it->second.members.begin(),
                                it->second.members.end());
}

Status DeclarativeCloud::SetQos(TenantId tenant, RegionId region,
                                double bandwidth_bps,
                                std::optional<QosSelector> selector) {
  const RegionSite& site = world_->region(region);
  Provider(site.provider);  // ensures enforcement points exist
  SimTime now = queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  const bool scoped = selector.has_value();
  TN_RETURN_IF_ERROR(
      qos_.SetQuota(tenant, region, bandwidth_bps, now, std::move(selector)));
  ledger_->ApiCall("set_qos", site.name + " bw=" +
                                  std::to_string(bandwidth_bps) +
                                  (scoped ? " (scoped)" : ""));
  if (scoped) {
    ledger_->SetParameter("set_qos", "traffic-selector");
  }
  return Status::Ok();
}

Status DeclarativeCloud::SetEgressProfile(TenantId tenant,
                                          EgressPolicy profile) {
  if (profile == EgressPolicy::kDedicated) {
    return InvalidArgumentError(
        "dedicated links are not part of the declarative model (§4)");
  }
  profiles_[tenant] = profile;
  ledger_->ApiCall("set_egress_profile",
                   std::string(EgressPolicyName(profile)));
  return Status::Ok();
}

EgressPolicy DeclarativeCloud::EgressProfileOf(TenantId tenant) const {
  auto it = profiles_.find(tenant);
  return it == profiles_.end() ? EgressPolicy::kHotPotato : it->second;
}

// --------------------------------------------------------------------------
// Provider-side signals.
// --------------------------------------------------------------------------

void DeclarativeCloud::NotifyInstanceDown(InstanceId instance) {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return;
  }
  IpAddress eip = it->second;
  sip_lb_.SetHealth(eip, false);
  // The provider stops announcing reachability for a dead endpoint: the EIP
  // host route leaves the RIB (the BGP analogue of WithdrawOrigin), so
  // routed delivery fails fast instead of blackholing into the host.
  auto eit = eips_.find(eip);
  if (eit != eips_.end() && eit->second.provider.valid()) {
    ProviderState& provider = Provider(eit->second.provider);
    // Idempotent: a second Down for the same instance finds no route (and
    // does not bump the revision).
    if (provider.rib.Withdraw(IpPrefix::Host(eip)).ok()) {
      ++provider.rib_revision;
    }
  }
}

void DeclarativeCloud::NotifyInstanceUp(InstanceId instance) {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return;
  }
  IpAddress eip = it->second;
  sip_lb_.SetHealth(eip, true);
  auto eit = eips_.find(eip);
  if (eit != eips_.end() && eit->second.provider.valid()) {
    InstallEipRoute(eip, eit->second.provider, eit->second.region);
  }
}

// --------------------------------------------------------------------------
// Data plane.
// --------------------------------------------------------------------------

DeclarativeCloud::DestinationEdge DeclarativeCloud::DestinationEdgeOf(
    const EipRecord& endpoint) const {
  // RequestEip created the endpoint's domain, so both lookups hit.
  if (endpoint.on_prem.valid()) {
    const EdgeFilterBank& bank = *on_prems_.at(endpoint.on_prem).filters;
    return {&bank, 0, bank.edge_name(0)};
  }
  const ProviderState& provider = providers_.at(endpoint.provider);
  size_t edge = provider.edge_index.at(endpoint.region);
  return {provider.filters.get(), edge, provider.filters->edge_name(edge)};
}

Result<DeclarativeCloud::DestinationEdge> DeclarativeCloud::DestinationEdgeOf(
    IpAddress eip) const {
  const EipRecord* record = FindEip(eip);
  if (record == nullptr) {
    return NotFoundError("no endpoint holds " + eip.ToString());
  }
  return DestinationEdgeOf(*record);
}

namespace {

// Data-plane effects for the verdict walk: one backend through the SIP
// pick counter, the edge's cached matcher, and a DeclarativeDelivery.
struct DeliveryEffects {
  void Hop(DeclarativeStage stage, std::string_view where = {}) {
    d.provider_hops.push_back(DeclarativeHopLabel(stage, where));
  }

  void Deny(DeclarativeStage stage, const FiveTuple& flow,
            std::string_view why) {
    d.drop_stage = DeclarativeStageName(stage);
    d.drop_reason = flow.src.ToString() + " -> " + flow.dst.ToString() +
                    ": " + std::string(why);
  }

  template <typename Walk>
  Status ForEachBackend(IpAddress sip, Walk walk) {
    Result<IpAddress> backend = cloud->sip_lb().Resolve(sip);
    if (!backend.ok()) {
      return backend.status();
    }
    d.effective_dst = *backend;
    walk(*this, *backend);
    return Status::Ok();
  }

  bool Admits(const DeclarativeCloud::DestinationEdge& edge,
              const FiveTuple& flow) {
    return edge.bank->Admits(edge.edge_index, flow);
  }

  void Deliver(const EipRecord& endpoint) {
    d.delivered = true;
    d.dst_node = endpoint.host_node;
    if (src == nullptr) {
      return;  // internet traffic keeps the hot-potato profile
    }
    // Intra-provider traffic rides the backbone; external traffic follows
    // the tenant's potato profile.
    const bool intra = endpoint.provider.valid() &&
                       endpoint.provider == src->provider;
    d.egress_policy = intra ? EgressPolicy::kColdPotato
                            : cloud->EgressProfileOf(src->tenant);
  }

  DeclarativeCloud* cloud = nullptr;
  const Instance* src = nullptr;  // null for internet traffic
  DeclarativeDelivery d = {};
};

}  // namespace

Result<DeclarativeDelivery> DeclarativeCloud::Evaluate(InstanceId src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  const Instance* src_inst = world_->FindInstance(src);
  if (src_inst == nullptr || !src_inst->running) {
    return NotFoundError("no such running instance");
  }
  auto sit = eip_by_instance_.find(src);
  if (sit == eip_by_instance_.end()) {
    return FailedPreconditionError("source instance has no EIP (request_eip)");
  }
  const uint16_t src_port = 40000 + static_cast<uint16_t>(src.value() % 20000);
  const FiveTuple flow{sit->second, dst, src_port, dst_port, proto};
  DeliveryEffects fx{this, src_inst};
  fx.d.effective_src = flow.src;
  fx.d.effective_dst = dst;
  fx.d.src_node = src_inst->host_node;
  fx.d.vm_egress_cap_bps = src_inst->vm_egress_cap_bps;
  WalkDeclarativeVerdict(*world_, *this, flow, fx);
  return std::move(fx.d);
}

DeclarativeDelivery DeclarativeCloud::EvaluateExternal(IpAddress src,
                                                       IpAddress dst,
                                                       uint16_t dst_port,
                                                       Protocol proto) {
  const FiveTuple flow{src, dst, 55555, dst_port, proto};
  DeliveryEffects fx{this, nullptr};
  fx.d.effective_src = src;
  fx.d.effective_dst = dst;
  fx.d.egress_policy = EgressPolicy::kHotPotato;
  WalkDeclarativeVerdict(*world_, *this, flow, fx);
  return std::move(fx.d);
}

// --------------------------------------------------------------------------
// Lookup / metrics.
// --------------------------------------------------------------------------

const EipRecord* DeclarativeCloud::FindEip(IpAddress addr) const {
  auto it = eips_.find(addr);
  return it == eips_.end() ? nullptr : &it->second;
}

std::optional<IpAddress> DeclarativeCloud::EipOf(InstanceId instance) const {
  auto it = eip_by_instance_.find(instance);
  if (it == eip_by_instance_.end()) {
    return std::nullopt;
  }
  return it->second;
}

EdgeFilterBank& DeclarativeCloud::provider_filters(ProviderId provider) {
  return *Provider(provider).filters;
}

EdgeFilterBank& DeclarativeCloud::on_prem_filters(OnPremId site) {
  return *OnPrem(site).filters;
}

size_t DeclarativeCloud::ProviderRibEntries(ProviderId provider) {
  return Provider(provider).rib.entry_count();
}

size_t DeclarativeCloud::ProviderAggregatedRibEntries(ProviderId provider) {
  ProviderState& state = Provider(provider);
  if (!state.aggregated_valid || state.aggregated_at != state.rib_revision) {
    state.aggregated_entries =
        AggregatePrefixes(state.rib.Prefixes()).size();
    state.aggregated_at = state.rib_revision;
    state.aggregated_valid = true;
  }
  return state.aggregated_entries;
}

}  // namespace tenantnet
