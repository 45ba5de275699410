#include "src/core/intent.h"

#include <algorithm>

namespace tenantnet {

namespace {

const ServiceSpec* FindService(const AppSpec& app, const std::string& name) {
  for (const ServiceSpec& spec : app.services) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

// A service's inbound permit list: its callers' groups on its service
// port, plus the world on that port when it is public.
Result<std::vector<PermitEntry>> ServicePermits(const AppSpec& app,
                                                const ServiceSpec& spec,
                                                const DeployedApp& deployed) {
  std::vector<PermitEntry> permits;
  for (const CallEdge& edge : app.calls) {
    if (edge.callee != spec.name) {
      continue;
    }
    auto cit = deployed.services.find(edge.caller);
    if (cit == deployed.services.end()) {
      return FailedPreconditionError("caller not deployed: " + edge.caller);
    }
    PermitEntry entry;
    entry.source_group = cit->second.group;
    permits.push_back(entry);
  }
  if (spec.public_facing) {
    PermitEntry anyone;
    anyone.source = IpPrefix::Any(IpFamily::kIpv4);
    permits.push_back(anyone);
  }
  for (PermitEntry& entry : permits) {
    entry.dst_ports = PortRange::Single(spec.port);
    entry.proto = spec.proto;
  }
  return permits;
}

}  // namespace

Result<IpAddress> DeployedApp::AddressOf(const std::string& service) const {
  auto it = services.find(service);
  if (it == services.end()) {
    return NotFoundError("no such service: " + service);
  }
  if (it->second.sip.has_value()) {
    return *it->second.sip;
  }
  if (it->second.eip_by_instance.size() == 1) {
    return it->second.eip_by_instance.begin()->second;
  }
  return FailedPreconditionError(
      "service has multiple instances but no SIP: " + service);
}

Result<IpAddress> DeployedApp::EipOf(const std::string& service,
                                     InstanceId instance) const {
  auto it = services.find(service);
  if (it == services.end()) {
    return NotFoundError("no such service: " + service);
  }
  auto eit = it->second.eip_by_instance.find(instance.value());
  if (eit == it->second.eip_by_instance.end()) {
    return NotFoundError("instance not in service");
  }
  return eit->second;
}

std::vector<FiveTuple> ExpectedFlows(const AppSpec& app,
                                     const DeployedApp& deployed) {
  std::vector<FiveTuple> flows;
  for (const CallEdge& edge : app.calls) {
    auto cit = deployed.services.find(edge.caller);
    auto sit = deployed.services.find(edge.callee);
    if (cit == deployed.services.end() || sit == deployed.services.end()) {
      continue;  // undeployed edge carries no intent
    }
    const ServiceSpec* callee_spec = FindService(app, edge.callee);
    if (callee_spec == nullptr) {
      continue;
    }
    for (const auto& [src_value, src_eip] : cit->second.eip_by_instance) {
      for (const auto& [dst_value, dst_eip] : sit->second.eip_by_instance) {
        FiveTuple flow;
        flow.src = src_eip;
        flow.dst = dst_eip;
        flow.dst_port = callee_spec->port;
        flow.proto = callee_spec->proto;
        flows.push_back(flow);
      }
    }
  }
  std::sort(flows.begin(), flows.end(), [](const FiveTuple& a,
                                           const FiveTuple& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.src != b.src) return a.src < b.src;
    if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
    return a.proto < b.proto;
  });
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
  return flows;
}

Result<DeployedApp> IntentDeployer::Deploy(const AppSpec& app) {
  // Validate the call graph first: every edge must name declared services.
  for (const CallEdge& edge : app.calls) {
    if (FindService(app, edge.caller) == nullptr ||
        FindService(app, edge.callee) == nullptr) {
      return InvalidArgumentError("call edge references unknown service: " +
                                  edge.caller + " -> " + edge.callee);
    }
  }

  DeployedApp deployed;

  // Pass 1: endpoints and per-service groups.
  for (const ServiceSpec& spec : app.services) {
    DeployedApp::ServiceHandles handles;
    TN_ASSIGN_OR_RETURN(handles.group,
                        cloud_->CreateEndpointGroup(app.tenant, spec.name));
    for (InstanceId instance : spec.instances) {
      TN_ASSIGN_OR_RETURN(IpAddress eip, cloud_->RequestEip(instance));
      handles.eip_by_instance[instance.value()] = eip;
      TN_RETURN_IF_ERROR(cloud_->AddToEndpointGroup(handles.group, eip));
    }
    if (spec.instances.size() > 1 && spec.sip_provider.valid()) {
      TN_ASSIGN_OR_RETURN(IpAddress sip,
                          cloud_->RequestSip(app.tenant, spec.sip_provider));
      handles.sip = sip;
      for (const auto& [value, eip] : handles.eip_by_instance) {
        TN_RETURN_IF_ERROR(cloud_->Bind(eip, sip));
      }
    }
    deployed.services.emplace(spec.name, std::move(handles));
  }

  // Pass 2: permit lists from the call graph.
  for (const ServiceSpec& spec : app.services) {
    TN_ASSIGN_OR_RETURN(std::vector<PermitEntry> permits,
                        ServicePermits(app, spec, deployed));
    const auto& handles = deployed.services.at(spec.name);
    for (const auto& [value, eip] : handles.eip_by_instance) {
      TN_RETURN_IF_ERROR(cloud_->SetPermitList(eip, permits).status());
    }
  }
  return deployed;
}

Status IntentDeployer::AddInstance(DeployedApp& app, const AppSpec& spec,
                                   const std::string& service,
                                   InstanceId instance) {
  auto it = app.services.find(service);
  if (it == app.services.end()) {
    return NotFoundError("no such deployed service: " + service);
  }
  const ServiceSpec* service_spec = FindService(spec, service);
  if (service_spec == nullptr) {
    return NotFoundError("service not in spec: " + service);
  }
  TN_ASSIGN_OR_RETURN(IpAddress eip, cloud_->RequestEip(instance));
  it->second.eip_by_instance[instance.value()] = eip;
  TN_RETURN_IF_ERROR(cloud_->AddToEndpointGroup(it->second.group, eip));
  if (it->second.sip.has_value()) {
    TN_RETURN_IF_ERROR(cloud_->Bind(eip, *it->second.sip));
  }

  // The newcomer needs the same inbound permit list as its siblings.
  TN_ASSIGN_OR_RETURN(std::vector<PermitEntry> permits,
                      ServicePermits(spec, *service_spec, app));
  return cloud_->SetPermitList(eip, permits).status();
}

Status IntentDeployer::RemoveInstance(DeployedApp& app,
                                      const std::string& service,
                                      InstanceId instance) {
  auto it = app.services.find(service);
  if (it == app.services.end()) {
    return NotFoundError("no such deployed service: " + service);
  }
  auto eit = it->second.eip_by_instance.find(instance.value());
  if (eit == it->second.eip_by_instance.end()) {
    return NotFoundError("instance not deployed in service");
  }
  IpAddress eip = eit->second;
  if (it->second.sip.has_value()) {
    TN_RETURN_IF_ERROR(cloud_->Unbind(eip, *it->second.sip));
  }
  TN_RETURN_IF_ERROR(cloud_->RemoveFromEndpointGroup(it->second.group, eip));
  TN_RETURN_IF_ERROR(cloud_->ReleaseEip(eip));
  it->second.eip_by_instance.erase(eit);
  return Status::Ok();
}

}  // namespace tenantnet
