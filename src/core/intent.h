// Intent deployment: from an application's service graph to API calls.
//
// The paper's larger thesis is that tenants should express *end-to-end
// goals*, not network mechanics. For service-centric applications the
// goals are already written down: the services, their ports, and who calls
// whom. IntentDeployer turns exactly that description into the Table 2
// calls — one EIP per instance, one endpoint group per service, permit
// lists derived from the call graph (group references, so scaling a
// service is one membership call), and a SIP per multi-instance service.
//
// This is the missing glue a service mesh provides today at L7, pushed
// down to the provider's L3/L4: the tenant writes an AppSpec; nothing else.

#ifndef TENANTNET_SRC_CORE_INTENT_H_
#define TENANTNET_SRC_CORE_INTENT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/api.h"

namespace tenantnet {

// One service tier.
struct ServiceSpec {
  std::string name;
  std::vector<InstanceId> instances;
  uint16_t port = 443;
  Protocol proto = Protocol::kTcp;
  // Public services accept the world on their port (e.g. a web frontend).
  bool public_facing = false;
  // Multi-instance services get a SIP from this provider; single-instance
  // or invalid-provider services are addressed by their one EIP.
  ProviderId sip_provider;
};

// "`caller` invokes `callee`" — one edge of the application call graph.
struct CallEdge {
  std::string caller;
  std::string callee;
};

struct AppSpec {
  TenantId tenant;
  std::vector<ServiceSpec> services;
  std::vector<CallEdge> calls;
};

// Everything the deployment produced, addressed by service name.
struct DeployedApp {
  struct ServiceHandles {
    EndpointGroupId group;
    std::optional<IpAddress> sip;
    std::map<uint64_t, IpAddress> eip_by_instance;  // InstanceId.value()
  };
  std::map<std::string, ServiceHandles> services;

  // The address a caller should dial for a service: its SIP if it has one,
  // otherwise its single instance's EIP.
  Result<IpAddress> AddressOf(const std::string& service) const;
  Result<IpAddress> EipOf(const std::string& service,
                          InstanceId instance) const;
};

// The declared reachability intent of a deployed application, spelled out
// as concrete flows: for every call edge, each caller instance's EIP must
// reach each callee instance's EIP on the callee's service port. This is
// the ground truth the reach layer's PolicyLearner observes and the drift
// detector compares installed policy against — derived from the same
// AppSpec the deployer turned into permit lists, but independently of what
// actually got installed.
std::vector<FiveTuple> ExpectedFlows(const AppSpec& app,
                                     const DeployedApp& deployed);

class IntentDeployer {
 public:
  explicit IntentDeployer(DeclarativeCloud& cloud) : cloud_(&cloud) {}

  // Deploys the whole application. Fails atomically-ish: on error the
  // partially created state is left in place (the caller owns cleanup, as
  // with any control plane) and the error says what failed.
  Result<DeployedApp> Deploy(const AppSpec& app);

  // Scales a deployed service by one instance: request_eip + group
  // membership (+ bind when the service has a SIP). Every permit list that
  // references the service follows automatically.
  Status AddInstance(DeployedApp& app, const AppSpec& spec,
                     const std::string& service, InstanceId instance);

  // Removes one instance: unbind + group removal + release.
  Status RemoveInstance(DeployedApp& app, const std::string& service,
                        InstanceId instance);

 private:
  DeclarativeCloud* cloud_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_INTENT_H_
