// Tests of the benchmark harness itself: span self-time arithmetic, the
// FlowControlSurface decorator's forwarding, the backlog guard, and digest
// stability across runs of one seed.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "e2ebench/harness.h"
#include "e2ebench/workloads.h"
#include "src/cloud/presets.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_sim.h"

namespace tenantnet::e2e {
namespace {

TEST(TracerTest, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer t;
  const uint32_t a = t.Intern("a");
  const uint32_t b = t.Intern("b");
  const uint32_t c = t.Intern("c");
  const uint32_t d = t.Intern("d");
  t.Begin(a, 0);
  t.Begin(b, 10, 7, 9);
  t.End(30);  // b: 20
  t.Begin(c, 40);
  t.Begin(d, 45);
  t.End(50);  // d: 5
  t.End(70);  // c: 30, self 25
  t.End(100);  // a: 100, self 100 - 20 - 30
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.Stats("a").busy_ns, 100);
  EXPECT_EQ(t.Stats("a").self_ns, 50);
  EXPECT_EQ(t.Stats("b").self_ns, 20);
  EXPECT_EQ(t.Stats("c").busy_ns, 30);
  EXPECT_EQ(t.Stats("c").self_ns, 25);
  EXPECT_EQ(t.Stats("d").self_ns, 5);
  int64_t self_sum = 0;
  for (const auto& name : t.names()) {
    self_sum += t.Stats(name).self_ns;
  }
  EXPECT_EQ(self_sum, t.Stats("a").busy_ns);

  ASSERT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].src, 7u);
  EXPECT_EQ(t.spans()[1].dst, 9u);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[3].parent, 2);
  EXPECT_EQ(t.spans()[3].end_ns, 50);
  EXPECT_EQ(t.Stats("never").calls, 0u);
}

TEST(TracerTest, RepeatedNamesAggregate) {
  Tracer t;
  const uint32_t a = t.Intern("a");
  EXPECT_EQ(t.Intern("a"), a);
  t.Begin(a, 0);
  t.End(4);
  t.Begin(a, 10);
  t.End(16);
  EXPECT_EQ(t.Stats("a").calls, 2u);
  EXPECT_EQ(t.Stats("a").busy_ns, 10);
  std::vector<double> durations = t.Stats("a").durations_ns;
  EXPECT_EQ(Quantile(durations, 0.99), 6);
  EXPECT_EQ(Median({4, 6}), 5);
}

class SurfaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tw_ = BuildTestWorld();
    InstanceId a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                              tw_.east, 0);
    InstanceId b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                              tw_.west, 0);
    path_ = *tw_.world->ResolveInstancePath(a, b, EgressPolicy::kColdPotato);
    ASSERT_FALSE(path_.empty());
    sim_ = std::make_unique<FlowSim>(queue_, tw_.world->topology());
    surface_ = std::make_unique<TracedSurface>(*sim_, &tracer_);
  }

  TestWorld tw_;
  EventQueue queue_;
  std::vector<LinkId> path_;
  std::unique_ptr<FlowSim> sim_;
  Tracer tracer_;
  std::unique_ptr<TracedSurface> surface_;
};

TEST_F(SurfaceTest, ForwardsEveryMethod) {
  FlowControlSurface& s = *surface_;
  int completed = 0;
  FlowId f = s.StartFlow(path_, 1e6, [&](FlowId, SimTime) { ++completed; },
                         1.0, 1e9, FlowControlSurface::AbortFn());
  EXPECT_NE(sim_->FindFlow(f), nullptr);
  EXPECT_EQ(s.FindFlow(f), sim_->FindFlow(f));
  EXPECT_EQ(*s.CurrentRate(f), *sim_->CurrentRate(f));
  ASSERT_TRUE(s.SetRateCap(f, 5e8).ok());
  EXPECT_EQ(sim_->FindFlow(f)->rate_cap_bps, 5e8);
  EXPECT_EQ(s.active_flow_count(), 1u);
  EXPECT_EQ(s.LinkUtilization(path_[0]), sim_->LinkUtilization(path_[0]));
  EXPECT_EQ(s.QueuePenalty(path_, SimDuration::Millis(1), SimDuration::Millis(9)),
            sim_->QueuePenalty(path_, SimDuration::Millis(1),
                               SimDuration::Millis(9)));

  FlowId p = s.StartPersistentFlow(path_, 2.0, 1e8,
                                   FlowControlSurface::AbortFn());
  EXPECT_EQ(sim_->active_flow_count(), 2u);
  ASSERT_TRUE(s.CancelFlow(p).ok());
  EXPECT_EQ(sim_->FindFlow(p), nullptr);

  const uint64_t reallocs = sim_->reallocation_count();
  {
    auto batch = s.Batch();
    s.StartFlow(path_, 1e5, nullptr, 1.0, 1e9, FlowControlSurface::AbortFn());
    s.StartFlow(path_, 1e5, nullptr, 1.0, 1e9, FlowControlSurface::AbortFn());
  }
  EXPECT_EQ(sim_->reallocation_count(), reallocs + 1);
  EXPECT_EQ(s.reallocation_count(), sim_->reallocation_count());

  queue_.RunAll();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(s.active_flow_count(), 0u);
  EXPECT_EQ(s.total_bytes_delivered(), sim_->total_bytes_delivered());
  EXPECT_EQ(s.flows_rescheduled(), sim_->flows_rescheduled());
  EXPECT_EQ(tracer_.Stats("app.on_complete").calls, 1u);
  EXPECT_EQ(tracer_.Stats("sim.start_flow").calls, 4u);
}

TEST_F(SurfaceTest, ForwardsFaultsAndCountsAbortedBytes) {
  FlowControlSurface& s = *surface_;
  int aborted = 0;
  s.StartFlow(path_, 4e6, nullptr, 1.0, 1e9,
              [&](FlowId, SimTime) { ++aborted; });
  s.StartFlow(path_, 3e6, nullptr, 1.0, 1e9, FlowControlSurface::AbortFn());
  ASSERT_TRUE(s.SetLinkUp(path_[0], false).ok());
  EXPECT_FALSE(sim_->IsLinkUp(path_[0]));
  EXPECT_FALSE(s.IsLinkUp(path_[0]));
  queue_.RunUntil(queue_.now() + SimDuration::Millis(1));
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(surface_->aborted_bytes(), 4e6);
  EXPECT_EQ(s.flows_aborted(), sim_->flows_aborted());
  EXPECT_EQ(s.stalled_flow_count(), 1u);
  EXPECT_EQ(s.flows_blackholed(), sim_->flows_blackholed());
  EXPECT_EQ(s.bytes_blackholed(), sim_->bytes_blackholed());
  EXPECT_EQ(tracer_.Stats("app.on_abort").calls, 1u);
  ASSERT_TRUE(s.SetLinkUp(path_[0], true).ok());
  queue_.RunAll();
  EXPECT_EQ(s.stalled_flow_count(), 0u);
}

TEST(ControlPlaneTest, CountsFailuresAndTenantLatency) {
  ControlPlane cp(nullptr);
  cp.record_mutation_latency = true;
  cp.Call("core.bind", [] { return Status::Ok(); });
  cp.Call("core.bind", [] { return NotFoundError("gone"); });
  cp.Call("core.request_eip", [] { return Result<int>(3); });
  cp.Call("routing.propagate", [] { return Status::Ok(); }, false);
  EXPECT_EQ(cp.calls(), 4u);
  EXPECT_EQ(cp.failed(), 1u);
  EXPECT_EQ(cp.verbs().at("core.bind").failed, 1u);
  EXPECT_EQ(cp.mutation_latency_us.size(), 3u);
}

TEST(BacklogTest, SteadyPassesGrowingFails) {
  EXPECT_EQ(CheckBacklog(std::vector<double>(64, 100.0)), "");
  std::vector<double> growing;
  for (int i = 0; i < 64; ++i) {
    growing.push_back(100.0 + 10.0 * i);
  }
  EXPECT_NE(CheckBacklog(growing), "");
  EXPECT_NE(CheckBacklog({1.0, 2.0}), "");
}

TEST(DigestTest, StableAcrossRunsOfOneSeed) {
  RepConfig config;
  config.seed = 5;
  RepResult first = RunWorkload("baseline_fig1", config);
  RepResult second = RunWorkload("baseline_fig1", config);
  EXPECT_TRUE(first.violations.empty());
  EXPECT_FALSE(first.digest.empty());
  EXPECT_EQ(first.digest, second.digest);
  config.seed = 6;
  EXPECT_NE(RunWorkload("baseline_fig1", config).digest, first.digest);
}

TEST(DigestTest, BulkIdenticalAcrossThreadCounts) {
  RepConfig config;
  config.seed = 5;
  config.threads = 1;
  RepResult one = RunWorkload("bulk_contention", config);
  config.threads = 2;
  RepResult two = RunWorkload("bulk_contention", config);
  EXPECT_TRUE(one.violations.empty());
  EXPECT_EQ(one.digest, two.digest);
}

}  // namespace
}  // namespace tenantnet::e2e
