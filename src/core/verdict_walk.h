// The declarative verdict walk: the one place the Table-2 stage order is
// written down. The data plane (DeclarativeCloud::Evaluate /
// EvaluateExternal) and the reach engine (DeclarativeReachEngine::CanReach)
// settle the source their own way, then run this walk under their own
// effects policy.

#ifndef TENANTNET_SRC_CORE_VERDICT_WALK_H_
#define TENANTNET_SRC_CORE_VERDICT_WALK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/cloud/world.h"
#include "src/core/api.h"

namespace tenantnet {

// Every label a declarative verdict carries, defined once: the data plane
// records the name (drop_stage, provider_hops), the reach engine its
// interned DenyStages() / RouteLabels() ids.
enum class DeclarativeStage : uint8_t {
  // Source stages: the reach engine reports them, Evaluate returns errors.
  kSrcDown, kNoEip, kSrcEip,
  // Destination stages, in walk order.
  kSipLb,           // hop: the provider's anycast balancer
  kSip,             // deny: the SIP resolves to no backend
  kNoSuchEndpoint,
  kInstanceDown,
  kEdgeFilter,      // hop "edge-filter@<where>"; deny: not permitted
  kDeliver,         // hop (reach trace only)
};
inline constexpr std::string_view kDeclarativeStageNames[] = {
    "src-down",         "no-eip",        "src-eip",     "sip-lb", "sip",
    "no-such-endpoint", "instance-down", "edge-filter", "deliver"};

constexpr std::string_view DeclarativeStageName(DeclarativeStage stage) {
  return kDeclarativeStageNames[static_cast<size_t>(stage)];
}

// A trace entry: the stage name, qualified by its enforcing edge if any.
inline std::string DeclarativeHopLabel(DeclarativeStage stage,
                                       std::string_view where = {}) {
  std::string label(DeclarativeStageName(stage));
  if (!where.empty()) {
    label.append("@").append(where);
  }
  return label;
}

// The destination stages for `flow`, whose source the front end settled:
// SIP resolution, endpoint lookup, instance liveness, then the default-off
// permit list at the destination's edge. `Effects` provides
//
//   void Hop(DeclarativeStage, std::string_view where = {});
//   void Deny(DeclarativeStage, const FiveTuple&, std::string_view why);
//   Status ForEachBackend(IpAddress sip, Walk walk);
//   bool Admits(const DeclarativeCloud::DestinationEdge&, const FiveTuple&);
//   void Deliver(const EipRecord& endpoint);
//
// ForEachBackend calls walk(Effects& branch, IpAddress backend) for each
// backend it picks; a non-OK status denies at the SIP stage.
template <typename Effects>
void WalkDeclarativeEndpoint(const CloudWorld& world,
                             const DeclarativeCloud& cloud,
                             const FiveTuple& flow, Effects& fx) {
  const EipRecord* record = cloud.FindEip(flow.dst);
  if (record == nullptr) {
    fx.Deny(DeclarativeStage::kNoSuchEndpoint, flow,
            "no endpoint holds the address");
    return;
  }
  const Instance* inst = world.FindInstance(record->instance);
  if (inst == nullptr || !inst->running) {
    fx.Deny(DeclarativeStage::kInstanceDown, flow,
            "the endpoint's instance is not running");
    return;
  }
  const auto edge = cloud.DestinationEdgeOf(*record);
  fx.Hop(DeclarativeStage::kEdgeFilter, edge.where);
  if (!fx.Admits(edge, flow)) {
    fx.Deny(DeclarativeStage::kEdgeFilter, flow,
            "default-off, the source is not on the permit list");
    return;
  }
  fx.Deliver(*record);
}

template <typename Effects>
void WalkDeclarativeVerdict(const CloudWorld& world,
                            const DeclarativeCloud& cloud,
                            const FiveTuple& flow, Effects& fx) {
  if (!cloud.IsSip(flow.dst)) {
    WalkDeclarativeEndpoint(world, cloud, flow, fx);
    return;
  }
  fx.Hop(DeclarativeStage::kSipLb);
  Status resolved =
      fx.ForEachBackend(flow.dst, [&](Effects& branch, IpAddress backend) {
        FiveTuple to_backend = flow;
        to_backend.dst = backend;
        WalkDeclarativeEndpoint(world, cloud, to_backend, branch);
      });
  if (!resolved.ok()) {
    fx.Deny(DeclarativeStage::kSip, flow, resolved.message());
  }
}

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_VERDICT_WALK_H_
