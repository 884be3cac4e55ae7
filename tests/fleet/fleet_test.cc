// Fleet layer: cluster determinism, placement policies, staged rollout,
// runtime enable/disable, and fleet metric aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"
#include "src/fleet/placer.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"

namespace taichi {
namespace {

fleet::ClusterConfig SmallCluster(int nodes, uint64_t seed) {
  fleet::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  cfg.epoch = sim::Millis(2);
  return cfg;
}

// --- Placer --------------------------------------------------------------

TEST(Placer, RefusesBeyondCapacity) {
  fleet::NodeCapacity cap;
  cap.vm_slots = 4;
  fleet::Placer placer(1, cap, fleet::PlacePolicy::kLeastLoaded);

  fleet::WorkloadSpec spec;
  spec.tenant = "t";
  spec.vms = 3;
  EXPECT_TRUE(placer.Place(spec).admitted);

  fleet::Placement refused = placer.Place(spec);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.node, -1);
  EXPECT_FALSE(refused.reason.empty());
  EXPECT_EQ(placer.admitted(), 1u);
  EXPECT_EQ(placer.refused(), 1u);
  EXPECT_EQ(placer.vms(0), 3);
}

TEST(Placer, RefusesOnDpAndCpDimensions) {
  fleet::NodeCapacity cap;
  cap.dp_util = 1.0;
  cap.cp_load = 2.0;
  fleet::Placer placer(1, cap, fleet::PlacePolicy::kRoundRobin);

  fleet::WorkloadSpec dp_hog;
  dp_hog.dp_util = 1.5;
  EXPECT_FALSE(placer.Place(dp_hog).admitted);

  fleet::WorkloadSpec cp_hog;
  cp_hog.cp_load = 3.0;
  EXPECT_FALSE(placer.Place(cp_hog).admitted);

  fleet::WorkloadSpec fits;
  fits.dp_util = 0.9;
  fits.cp_load = 1.9;
  EXPECT_TRUE(placer.Place(fits).admitted);
}

TEST(Placer, LeastLoadedBreaksTiesTowardLowestId) {
  fleet::Placer placer(3, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 2;
  // All empty: node 0. Then 1 and 2 tie below 0: node 1. Then node 2.
  EXPECT_EQ(placer.Place(spec).node, 0);
  EXPECT_EQ(placer.Place(spec).node, 1);
  EXPECT_EQ(placer.Place(spec).node, 2);
  // All equal again: back to node 0.
  EXPECT_EQ(placer.Place(spec).node, 0);
}

TEST(Placer, RoundRobinRotatesAndSkipsFullNodes) {
  fleet::NodeCapacity cap;
  cap.vm_slots = 2;
  fleet::Placer placer(3, cap, fleet::PlacePolicy::kRoundRobin);
  fleet::WorkloadSpec spec;
  spec.vms = 2;  // Each placement fills its node.
  EXPECT_EQ(placer.Place(spec).node, 0);
  EXPECT_EQ(placer.Place(spec).node, 1);
  EXPECT_EQ(placer.Place(spec).node, 2);
  EXPECT_FALSE(placer.Place(spec).admitted);

  placer.Release(1, spec);
  EXPECT_EQ(placer.Place(spec).node, 1);
}

TEST(Placer, BinPackFillsHottestNodeFirst) {
  fleet::NodeCapacity cap;
  cap.vm_slots = 4;
  fleet::Placer placer(2, cap, fleet::PlacePolicy::kBinPack);
  fleet::WorkloadSpec spec;
  spec.vms = 2;
  EXPECT_EQ(placer.Place(spec).node, 0);
  // Node 0 is hotter and still fits: keep packing it.
  EXPECT_EQ(placer.Place(spec).node, 0);
  // Node 0 full: spill to node 1.
  EXPECT_EQ(placer.Place(spec).node, 1);
}

TEST(Placer, ReleaseRestoresCapacity) {
  fleet::Placer placer(2, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 4;
  spec.dp_util = 0.5;
  spec.cp_load = 5.0;
  fleet::Placement p = placer.Place(spec);
  ASSERT_TRUE(p.admitted);
  EXPECT_GT(placer.LoadScore(static_cast<size_t>(p.node)), 0.0);
  placer.Release(p.node, spec);
  EXPECT_DOUBLE_EQ(placer.LoadScore(static_cast<size_t>(p.node)), 0.0);
  EXPECT_EQ(placer.vms(static_cast<size_t>(p.node)), 0);
}

TEST(Placer, ReleaseBelowZeroDies) {
  // Releasing a spec that was never admitted (double-release, migration
  // bookkeeping aimed at the wrong node) corrupts every later admission
  // decision — it must die loudly, not drift.
  fleet::Placer placer(2, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.tenant = "ghost";
  spec.vms = 2;
  EXPECT_DEATH(placer.Release(0, spec), "below zero");
}

TEST(Placer, ReleaseAfterOneAdmissionDiesOnSecondRelease) {
  fleet::Placer placer(1, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 3;
  ASSERT_TRUE(placer.Place(spec).admitted);
  placer.Release(0, spec);  // Legitimate.
  EXPECT_DEATH(placer.Release(0, spec), "below zero");
}

TEST(Placer, PlaceOnTargetsTheNodeOrRefuses) {
  fleet::NodeCapacity cap;
  cap.vm_slots = 4;
  fleet::Placer placer(3, cap, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 3;

  // Targeted admission ignores the policy's own choice.
  fleet::Placement p = placer.PlaceOn(2, spec);
  ASSERT_TRUE(p.admitted);
  EXPECT_EQ(p.node, 2);
  EXPECT_EQ(placer.vms(2), 3);
  EXPECT_EQ(placer.vms(0), 0);

  // A full target refuses without touching the accounting, even while other
  // nodes still have room.
  fleet::Placement refused = placer.PlaceOn(2, spec);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(placer.vms(2), 3);
  EXPECT_TRUE(placer.Fits(0, spec));
  EXPECT_FALSE(placer.Fits(2, spec));
}

// --- Aggregation ---------------------------------------------------------

TEST(FleetAggregation, MergeSummariesIsExactOverUnion) {
  sim::Summary a, b;
  for (double v : {1.0, 2.0, 3.0}) {
    a.Add(v);
  }
  for (double v : {10.0, 20.0}) {
    b.Add(v);
  }
  sim::Summary merged = obs::MergeSummaries({&a, &b, nullptr});
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 20.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(merged.sum(), 36.0);
}

TEST(FleetAggregation, FindSummaryReturnsRegisteredSummariesOnly) {
  obs::MetricsRegistry registry;
  sim::Summary s;
  s.Add(4.2);
  registry.AddSummary("lat", &s);
  registry.AddGauge("g", [] { return 1.0; });
  ASSERT_NE(registry.FindSummary("lat"), nullptr);
  EXPECT_EQ(registry.FindSummary("lat")->count(), 1u);
  EXPECT_EQ(registry.FindSummary("g"), nullptr);
  EXPECT_EQ(registry.FindSummary("missing"), nullptr);
}

TEST(FleetAggregation, ClusterMergesNodeMetrics) {
  fleet::Cluster cluster(SmallCluster(2, 5));
  // Two startups on node 0, one on node 1.
  cluster.node(0).device_manager().StartVm(cluster.node(0).cp_task_cpus());
  cluster.node(0).device_manager().StartVm(cluster.node(0).cp_task_cpus());
  cluster.node(1).device_manager().StartVm(cluster.node(1).cp_task_cpus());
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(cluster.node(0).device_manager().AllDone());
  ASSERT_TRUE(cluster.node(1).device_manager().AllDone());

  sim::Summary fleet = cluster.MergeSummaryMetric("cp.vm_startup.latency_ms");
  EXPECT_EQ(fleet.count(), 3u);
  EXPECT_DOUBLE_EQ(fleet.sum(), cluster.node(0).device_manager().startup_ms().sum() +
                                    cluster.node(1).device_manager().startup_ms().sum());
}

TEST(LoadGen, DoubleStartDies) {
  // Starting a running LoadGen would stack a second set of arrival streams
  // on every node and silently double the offered load: TAICHI_ERROR +
  // assert, not a quiet no-op.
  fleet::Cluster cluster(SmallCluster(2, 7));
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 7;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  EXPECT_DEATH(load.Start(), "Start called twice");
  load.Stop();
}

TEST(Cluster, FlowTelemetryFlowsThroughPacketPath) {
  // End-to-end: background traffic driven by the LoadGen must land in every
  // node's RX/DP flow sketches via the packet-path taps, and the per-node
  // monitors must roll up into one fleet monitor with exact total counts.
  fleet::Cluster cluster(SmallCluster(2, 7));
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 7;
  lcfg.vm_arrivals = false;
  lcfg.flow_count = 64;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  cluster.RunFor(sim::Millis(20));
  load.Stop();

  uint64_t rx_sum = 0, dp_sum = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const exp::Testbed& bed = cluster.node(i);
    EXPECT_GT(bed.flow_rx().total_packets(), 0u) << "node " << i;
    EXPECT_GT(bed.flow_dp().total_packets(), 0u) << "node " << i;
    // Synthesized 5-tuples spread over many flows, not one blob.
    EXPECT_GT(bed.flow_dp().DistinctFlows(), 10.0) << "node " << i;
    EXPECT_FALSE(bed.flow_dp().TopK(1).empty()) << "node " << i;
    rx_sum += bed.flow_rx().total_packets();
    dp_sum += bed.flow_dp().total_packets();
    // The taps registered their gauges with the node's metrics registry.
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.rx.total_packets"));
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.dp.distinct_flows"));
    EXPECT_TRUE(cluster.observability(i).metrics.Has("flows.tx.total_bytes"));
  }
  EXPECT_EQ(cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).total_packets(), rx_sum);
  EXPECT_EQ(cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kDp).total_packets(), dp_sum);
}

// --- SLO monitor ---------------------------------------------------------

class SloMonitorTest : public ::testing::Test {
 protected:
  SloMonitorTest() : cluster_(SmallCluster(3, 5)) {
    for (size_t i = 0; i < cluster_.size(); ++i) {
      cluster_.observability(i).metrics.AddSummary("test.lat", &lat_[i]);
    }
    cfg_.metric = "test.lat";
    cfg_.percentile = 50.0;
    cfg_.threshold = 100.0;
    cfg_.min_samples = 2;
  }

  fleet::Cluster cluster_;
  sim::Summary lat_[3];
  fleet::SloConfig cfg_;
};

TEST_F(SloMonitorTest, WindowsAdvancePerObserve) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[0].Add(20);
  fleet::SloMonitor::Report r1 = monitor.Observe();
  EXPECT_EQ(r1.total_samples, 2u);
  EXPECT_DOUBLE_EQ(r1.fleet_value, 15.0);
  EXPECT_FALSE(r1.fleet_breach);

  // Only samples added after the first Observe count in the second.
  lat_[0].Add(500);
  lat_[1].Add(500);
  fleet::SloMonitor::Report r2 = monitor.Observe();
  EXPECT_EQ(r2.total_samples, 2u);
  EXPECT_DOUBLE_EQ(r2.fleet_value, 500.0);
  EXPECT_TRUE(r2.fleet_breach);

  // Empty window: no samples, no breach.
  fleet::SloMonitor::Report r3 = monitor.Observe();
  EXPECT_EQ(r3.total_samples, 0u);
  EXPECT_FALSE(r3.fleet_breach);
}

TEST_F(SloMonitorTest, SubsetRestrictsFleetAggregateNotNodeStats) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[1].Add(1000);
  fleet::SloMonitor::Report r = monitor.Observe({0});
  EXPECT_EQ(r.total_samples, 1u);
  EXPECT_DOUBLE_EQ(r.fleet_value, 10.0);
  EXPECT_FALSE(r.fleet_breach);
  // Node 1's own stats are still evaluated.
  EXPECT_EQ(r.nodes[1].samples, 1u);
  EXPECT_TRUE(r.nodes[1].breach);
}

TEST_F(SloMonitorTest, SubsetObserveDoesNotConsumeOtherNodesWindows) {
  // Regression: Observe(subset) used to advance the window cursor of every
  // node, so samples landing on out-of-subset nodes between two subset
  // observations were silently lost to the next evaluation over those nodes.
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(10);
  lat_[1].Add(500);  // Arrives while only node 0 is being watched.
  fleet::SloMonitor::Report r1 = monitor.Observe({0});
  EXPECT_EQ(r1.total_samples, 1u);
  EXPECT_DOUBLE_EQ(r1.fleet_value, 10.0);

  lat_[1].Add(600);
  // A later window over node 1 must still see BOTH of its samples.
  fleet::SloMonitor::Report r2 = monitor.Observe({1});
  EXPECT_EQ(r2.total_samples, 2u);
  EXPECT_EQ(r2.nodes[1].samples, 2u);
  EXPECT_DOUBLE_EQ(r2.fleet_value, 550.0);
  EXPECT_TRUE(r2.fleet_breach);

  // Node 1's window was consumed by r2; node 0's was consumed by r1.
  fleet::SloMonitor::Report r3 = monitor.Observe();
  EXPECT_EQ(r3.total_samples, 0u);
}

TEST_F(SloMonitorTest, InterleavedSubsetsThenFullObserveSeesEverything) {
  fleet::SloMonitor monitor(&cluster_, cfg_);
  lat_[0].Add(1);
  lat_[1].Add(2);
  lat_[2].Add(3);
  EXPECT_EQ(monitor.Observe({0}).total_samples, 1u);
  lat_[0].Add(4);
  EXPECT_EQ(monitor.Observe({1}).total_samples, 1u);
  // Full observe: node 0's post-first-observe sample + node 2's untouched
  // window, nothing double-counted.
  fleet::SloMonitor::Report full = monitor.Observe();
  EXPECT_EQ(full.total_samples, 2u);
  EXPECT_EQ(full.nodes[0].samples, 1u);
  EXPECT_EQ(full.nodes[1].samples, 0u);
  EXPECT_EQ(full.nodes[2].samples, 1u);
}

TEST_F(SloMonitorTest, RestartedNodeWindowStartsAtItsFirstSample) {
  // Regression: windows used to be positional cursors into the node's
  // sample vector. A rebooted node whose fresh summary had already reached
  // the old cursor's length by the next Observe() silently lost its first
  // `cursor` samples.
  fleet::SloMonitor monitor(&cluster_, cfg_);
  for (double v : {10.0, 20.0, 30.0}) {
    lat_[1].Add(v);
  }
  EXPECT_EQ(monitor.Observe().nodes[1].samples, 3u);

  cluster_.CrashNode(1);
  cluster_.RestartNode(1);
  // The new life happens to repeat the old values (so the old snapshot is a
  // sub-multiset of the new summary) and adds one more.
  sim::Summary reborn;
  for (double v : {10.0, 20.0, 30.0, 500.0}) {
    reborn.Add(v);
  }
  cluster_.observability(1).metrics.AddSummary("test.lat", &reborn);
  fleet::SloMonitor::Report r = monitor.Observe();
  EXPECT_EQ(r.nodes[1].samples, 4u);
  EXPECT_EQ(r.total_samples, 4u);
  EXPECT_DOUBLE_EQ(r.nodes[1].value, 25.0);

  // Same boot, but the metric was swapped for one the snapshot does not
  // cover: the window restarts at the new summary's first sample too.
  sim::Summary swapped;
  for (double v : {1.0, 2.0}) {
    swapped.Add(v);
  }
  cluster_.observability(1).metrics.Remove("test.lat");
  cluster_.observability(1).metrics.AddSummary("test.lat", &swapped);
  EXPECT_EQ(monitor.Observe().nodes[1].samples, 2u);
  // From here on the window advances normally.
  swapped.Add(3.0);
  EXPECT_EQ(monitor.Observe().nodes[1].samples, 1u);
}

TEST_F(SloMonitorTest, HotspotReportNamesHeavyFlowsFromSketches) {
  cfg_.hotspot_factor = 2.0;
  cfg_.heavy_hitters = 2;
  fleet::SloMonitor monitor(&cluster_, cfg_);

  // Feed the DP-tap sketches directly (deterministic, no traffic needed):
  // an elephant flow concentrated on node 2, plus cross-node chatter that
  // only the merged fleet sketch can total up.
  auto flow = [](uint32_t i) {
    obs::FlowKey k;
    k.src_ip = 0xc0a80000u | i;
    k.dst_ip = 0x0a000001u;
    k.src_port = static_cast<uint16_t>(5000 + i);
    k.dst_port = 443;
    k.proto = obs::kProtoTcp;
    return k;
  };
  for (int p = 0; p < 100; ++p) {
    cluster_.node(2).flow_dp().OnPacket(flow(1), 1500);  // The elephant.
  }
  for (int p = 0; p < 30; ++p) {
    // Flow 2 is spread across all three nodes: no single node sees it as
    // dominant, but fleet-wide it outweighs everything except the elephant.
    for (size_t n = 0; n < cluster_.size(); ++n) {
      cluster_.node(n).flow_dp().OnPacket(flow(2), 1000);
    }
    cluster_.node(2).flow_dp().OnPacket(flow(3), 100);  // A mouse.
  }

  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);  // Hotspot, as in DetectsHotspotsAndSuggestsRebalance.
  }
  fleet::SloMonitor::Report r = monitor.Observe();
  ASSERT_EQ(r.hotspots.size(), 1u);
  ASSERT_EQ(r.hotspots[0], 2);

  // Hotspot node 2: the elephant leads its heavy list with the exact
  // sketch-estimated bytes and its share of the node's DP bytes.
  ASSERT_EQ(r.nodes[2].heavy.size(), 2u);
  EXPECT_EQ(r.nodes[2].heavy[0].key, flow(1));
  EXPECT_EQ(r.nodes[2].heavy[0].bytes, 100u * 1500u);
  EXPECT_EQ(r.nodes[2].heavy[0].packets, 100u);
  const double node2_total = 100.0 * 1500 + 30.0 * 1000 + 30.0 * 100;
  EXPECT_NEAR(r.nodes[2].heavy[0].share, 100.0 * 1500 / node2_total, 1e-9);
  EXPECT_EQ(r.nodes[2].heavy[1].key, flow(2));
  // Non-hotspot nodes carry no flow attribution.
  EXPECT_TRUE(r.nodes[0].heavy.empty());
  EXPECT_TRUE(r.nodes[1].heavy.empty());

  // Fleet scope: merged across nodes, the spread-out flow 2 totals
  // 90 packets and ranks ahead of everything but the elephant.
  ASSERT_EQ(r.fleet_heavy.size(), 2u);
  EXPECT_EQ(r.fleet_heavy[0].key, flow(1));
  EXPECT_EQ(r.fleet_heavy[1].key, flow(2));
  EXPECT_EQ(r.fleet_heavy[1].bytes, 90u * 1000u);
  EXPECT_EQ(r.fleet_heavy[1].packets, 90u);
  EXPECT_GT(r.fleet_heavy[0].share, r.fleet_heavy[1].share);
}

TEST_F(SloMonitorTest, HeavyHittersZeroDisablesFlowAttribution) {
  cfg_.hotspot_factor = 2.0;
  cfg_.heavy_hitters = 0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  cluster_.node(2).flow_dp().OnPacket(obs::FlowKey{}, 1500);
  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);
  }
  fleet::SloMonitor::Report r = monitor.Observe();
  ASSERT_EQ(r.hotspots.size(), 1u);
  EXPECT_TRUE(r.nodes[2].heavy.empty());
  EXPECT_TRUE(r.fleet_heavy.empty());
}

TEST_F(SloMonitorTest, DetectsHotspotsAndSuggestsRebalance) {
  cfg_.hotspot_factor = 2.0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);  // Well above 2x the fleet median, below the SLO.
  }
  fleet::SloMonitor::Report r = monitor.Observe();
  ASSERT_EQ(r.hotspots.size(), 1u);
  EXPECT_EQ(r.hotspots[0], 2);
  EXPECT_TRUE(r.nodes[2].hotspot);

  fleet::Placer placer(3, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 4;
  placer.Place(spec);  // Node 0 carries load; node 1 is the coolest.
  std::vector<fleet::SloMonitor::Move> moves = monitor.SuggestRebalance(placer);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 2);
  EXPECT_EQ(moves[0].to, 1);
}

TEST_F(SloMonitorTest, SuggestRebalanceIsDeterministic) {
  cfg_.hotspot_factor = 2.0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  // Two hotspots against a cool fleet median: the move list must come out
  // in the same stable (ascending hotspot) order every time it is asked.
  for (int i = 0; i < 20; ++i) {
    lat_[0].Add(10);  // The fleet median sits firmly at 10.
  }
  for (int i = 0; i < 4; ++i) {
    lat_[1].Add(50);
    lat_[2].Add(90);
  }
  monitor.Observe();
  fleet::Placer placer(3, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  const std::vector<fleet::SloMonitor::Move> a = monitor.SuggestRebalance(placer);
  const std::vector<fleet::SloMonitor::Move> b = monitor.SuggestRebalance(placer);
  ASSERT_EQ(a.size(), 2u);  // Vacuity guard: both hotspots produced a move.
  ASSERT_EQ(b.size(), 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
    EXPECT_EQ(a[i].to, 0) << "node 0 is the only non-hotspot target";
  }
}

TEST_F(SloMonitorTest, SuggestRebalanceNeverSuggestsAnUnfittableMove) {
  cfg_.hotspot_factor = 2.0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);
  }
  monitor.Observe();
  // No node can hold the unit: the hotspot stays listed, the move list is
  // empty — a suggestion the placer would refuse is worse than none.
  fleet::NodeCapacity tiny;
  tiny.vm_slots = 1;
  fleet::Placer placer(3, tiny, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec unit;
  unit.vms = 4;
  EXPECT_TRUE(monitor.SuggestRebalance(placer, unit).empty());
}

TEST_F(SloMonitorTest, SuggestRebalanceSkipsDeadTargets) {
  cfg_.hotspot_factor = 2.0;
  fleet::SloMonitor monitor(&cluster_, cfg_);
  for (int i = 0; i < 4; ++i) {
    lat_[0].Add(10);
    lat_[1].Add(10);
    lat_[2].Add(90);
  }
  monitor.Observe();
  fleet::Placer placer(3, fleet::NodeCapacity{}, fleet::PlacePolicy::kLeastLoaded);
  fleet::WorkloadSpec spec;
  spec.vms = 4;
  placer.Place(spec);  // Node 0 carries load; node 1 would be the coolest.
  cluster_.CrashNode(1);
  std::vector<fleet::SloMonitor::Move> moves = monitor.SuggestRebalance(placer);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 2);
  EXPECT_EQ(moves[0].to, 0) << "the dead node must not be a target";
}

// --- Cluster determinism -------------------------------------------------

TEST(Cluster, NodePrefixIsIndependentOfClusterSize) {
  struct NodeResult {
    sim::Duration dp_work;
    size_t startups;
    double startup_sum;
    std::vector<sim::Summary::ValueCount> startup_counts;
  };
  auto drive = [](int nodes) {
    fleet::Cluster cluster(SmallCluster(nodes, 99));
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 99;
    lcfg.vm_arrival_rate_per_sec = 150.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(60));
    load.Stop();
    std::vector<NodeResult> out;
    for (size_t i = 0; i < cluster.size(); ++i) {
      const sim::Summary& startup = cluster.node(i).device_manager().startup_ms();
      out.push_back({cluster.node(i).TotalDpWork(), startup.count(), startup.sum(),
                     startup.Counts()});
    }
    return out;
  };
  // Building the larger cluster must not change what the first nodes do.
  std::vector<NodeResult> small = drive(2);
  std::vector<NodeResult> large = drive(3);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].dp_work, large[i].dp_work) << "node " << i;
    EXPECT_EQ(small[i].startups, large[i].startups) << "node " << i;
    // Bit-exact: the sum runs in sample order on each node.
    EXPECT_EQ(small[i].startup_sum, large[i].startup_sum) << "node " << i;
    ASSERT_EQ(small[i].startup_counts.size(), large[i].startup_counts.size()) << "node " << i;
    for (size_t v = 0; v < small[i].startup_counts.size(); ++v) {
      EXPECT_EQ(small[i].startup_counts[v].value, large[i].startup_counts[v].value);
      EXPECT_EQ(small[i].startup_counts[v].count, large[i].startup_counts[v].count);
    }
  }
}

TEST(Cluster, SummaryMemoryStaysFlatAsSimulatedTimeDoubles) {
  // Summaries hold one entry per distinct value, and simulated latencies
  // are integer nanoseconds from a bounded range: twice the simulated time
  // brings twice the samples but few new values. Byte counts are capacities,
  // so this is deterministic.
  struct Footprint {
    uint64_t samples = 0;
    size_t bytes = 0;
  };
  auto run = [](sim::Duration length) {
    fleet::Cluster cluster(SmallCluster(2, 41));
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 41;
    lcfg.vm_arrival_rate_per_sec = 150.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(length);
    load.Stop();
    Footprint out;
    for (size_t i = 0; i < cluster.size(); ++i) {
      const obs::MetricsRegistry& reg = cluster.observability(i).metrics;
      for (const obs::MetricSample& m : reg.Snapshot(cluster.Now()).samples) {
        if (m.kind == obs::MetricSample::Kind::kSummary) {
          const sim::Summary* s = reg.FindSummary(m.name);
          out.samples += s->count();
          out.bytes += s->heap_bytes();
        }
      }
    }
    return out;
  };
  const Footprint once = run(sim::Millis(200));
  const Footprint twice = run(sim::Millis(400));
  ASSERT_GT(once.samples, 10000u);
  // Load ramps up from the start, so the longer run has slightly under 2x.
  EXPECT_GE(twice.samples, once.samples * 18 / 10);
  EXPECT_LE(twice.bytes, once.bytes * 3 / 2)
      << once.bytes << " bytes for " << once.samples << " samples, then " << twice.bytes
      << " bytes for " << twice.samples;
}

TEST(Cluster, SameSeedRunsAreByteIdentical) {
  auto run = [] {
    fleet::ClusterConfig cfg = SmallCluster(2, 31);
    cfg.enable_trace = true;
    cfg.trace_capacity = 1 << 10;
    fleet::Cluster cluster(cfg);
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 31;
    lcfg.vm_arrival_rate_per_sec = 150.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(40));
    load.Stop();
    std::string trace = cluster.MergedTraceJson();
    std::string metrics;
    for (size_t i = 0; i < cluster.size(); ++i) {
      metrics += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
    }
    return std::pair(trace, metrics);
  };
  auto [trace1, metrics1] = run();
  auto [trace2, metrics2] = run();
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);
}

// The tentpole contract: a parallel run is byte-identical to a serial run —
// metrics JSON, merged Chrome trace, and the rollout wave log. Each node
// owns its clock/Rng/observability, so thread count must not be observable
// in any output.
TEST(Cluster, ParallelRunIsByteIdenticalToSerial) {
  struct Output {
    std::string trace;
    std::string metrics;
    std::string wave_log;
  };
  auto run = [](int threads) {
    fleet::ClusterConfig cfg = SmallCluster(4, 23);
    cfg.enable_trace = true;
    cfg.trace_capacity = 1 << 10;
    cfg.threads = threads;
    fleet::Cluster cluster(cfg);

    fleet::LoadGenConfig lcfg;
    lcfg.seed = 23;
    lcfg.vm_arrival_rate_per_sec = 200.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(20));

    fleet::RolloutConfig rcfg;
    rcfg.waves = {1, 4};
    rcfg.settle = sim::Millis(10);
    rcfg.soak = sim::Millis(20);
    rcfg.slo.threshold = 1e9;
    rcfg.slo.min_samples = 1;
    fleet::Rollout rollout(&cluster, rcfg);
    rollout.Start();
    cluster.RunFor(sim::Millis(150));
    load.Stop();
    EXPECT_EQ(rollout.state(), fleet::Rollout::State::kDone);

    Output out;
    out.trace = cluster.MergedTraceJson();
    for (size_t i = 0; i < cluster.size(); ++i) {
      out.metrics += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
    }
    for (const fleet::Rollout::Event& e : rollout.history()) {
      out.wave_log += std::to_string(e.at) + " " + e.what + "\n";
    }
    return out;
  };
  Output serial = run(1);
  Output parallel = run(4);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.wave_log, parallel.wave_log);
  EXPECT_FALSE(serial.wave_log.empty());
}

TEST(Cluster, OversizedThreadCountClampsToNodes) {
  fleet::ClusterConfig cfg = SmallCluster(2, 7);
  cfg.threads = 64;  // More threads than nodes: clamp, don't spawn idlers.
  fleet::Cluster cluster(cfg);
  EXPECT_EQ(cluster.config().threads, 2);
  cluster.RunFor(sim::Millis(6));
  EXPECT_EQ(cluster.node(0).sim().Now(), cluster.Now());
  EXPECT_EQ(cluster.node(1).sim().Now(), cluster.Now());
}

TEST(Cluster, EpochHooksFireAtEveryBoundaryAndCanBeRemoved) {
  fleet::Cluster cluster(SmallCluster(2, 3));
  std::vector<sim::SimTime> fired;
  uint64_t id = cluster.AddEpochHook([&](sim::SimTime at) { fired.push_back(at); });
  const sim::SimTime start = cluster.Now();
  cluster.RunFor(sim::Millis(6));  // Three 2 ms epochs.
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], start + sim::Millis(2));
  EXPECT_EQ(fired[2], start + sim::Millis(6));
  EXPECT_EQ(cluster.node(0).sim().Now(), cluster.Now());
  EXPECT_EQ(cluster.node(1).sim().Now(), cluster.Now());

  cluster.RemoveEpochHook(id);
  cluster.RunFor(sim::Millis(4));
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Cluster, EpochBoundaryShrinksNodeEventPools) {
  fleet::Cluster cluster(SmallCluster(2, 3));
  sim::Simulation& sim = cluster.node(0).sim();
  // A burst of scheduled-then-cancelled work (a VM-startup storm's wake)
  // leaves the slot table mostly free; the next epoch boundary gives the
  // memory back.
  std::vector<sim::EventId> burst;
  for (int i = 0; i < 4096; ++i) {
    burst.push_back(sim.Schedule(sim::Seconds(10) + i, [] {}));
  }
  for (sim::EventId id : burst) {
    sim.Cancel(id);
  }
  const size_t before = sim.event_pool_slots();
  ASSERT_GE(before, 4096u);
  cluster.RunFor(sim::Millis(2));  // One epoch.
  EXPECT_LT(sim.event_pool_slots(), before);
}

TEST(Cluster, PacketArenasGrowOnlyToPacketsInFlight) {
  // Each node's arena reserves its configured capacity but builds slots only
  // as packets need them, so after a loaded run the constructed slots sit far
  // below capacity and cover the largest in-flight population seen.
  fleet::Cluster cluster(SmallCluster(12, 13));
  std::vector<size_t> peak_in_use(cluster.size(), 0);
  for (size_t i = 0; i < cluster.size(); ++i) {
    const sim::PacketPool& pool = cluster.node(i).machine().pool();
    size_t& peak = peak_in_use[i];
    cluster.node(i).sim().ScheduleRepeating(sim::Micros(5), sim::Micros(5), [&pool, &peak] {
      peak = std::max(peak, pool.in_use());
    });
  }
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 13;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  cluster.RunFor(sim::Millis(20));
  load.Stop();
  for (size_t i = 0; i < cluster.size(); ++i) {
    const sim::PacketPool& pool = cluster.node(i).machine().pool();
    SCOPED_TRACE(i);
    EXPECT_GT(peak_in_use[i], 0u);
    EXPECT_GE(pool.high_water(), peak_in_use[i]);
    EXPECT_LT(pool.high_water(), pool.capacity() / 64);
  }
}


// --- Score-indexed placement vs the linear-scan reference ----------------

// Brute-force reference: the exact scan Place() used before the score index.
int ReferencePlace(const fleet::Placer& p, const fleet::WorkloadSpec& spec) {
  int best = -1;
  double best_score = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (!p.Fits(i, spec)) {
      continue;
    }
    const double score = p.LoadScore(i);
    const bool better =
        best < 0 || (p.policy() == fleet::PlacePolicy::kBinPack ? score > best_score
                                                                : score < best_score);
    if (better) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

TEST(Placer, IndexedPlaceMatchesLinearScanUnderChurn) {
  // Randomized commit/release churn: every Place() decision must equal the
  // old O(n) scan's, including its lowest-id tie-breaks (fresh fleets are
  // all-ties, so the tie path is exercised from the first placement).
  for (fleet::PlacePolicy policy :
       {fleet::PlacePolicy::kLeastLoaded, fleet::PlacePolicy::kBinPack}) {
    fleet::NodeCapacity cap;
    cap.vm_slots = 8;
    cap.dp_util = 2.0;
    cap.cp_load = 16.0;
    fleet::Placer placer(13, cap, policy);
    std::vector<std::pair<int, fleet::WorkloadSpec>> admitted;
    uint64_t seed = 0x91aceULL;
    for (int round = 0; round < 400; ++round) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t r = seed >> 16;
      if (r % 4 == 0 && !admitted.empty()) {
        const size_t victim = r % admitted.size();
        placer.Release(admitted[victim].first, admitted[victim].second);
        admitted[victim] = admitted.back();
        admitted.pop_back();
        continue;
      }
      fleet::WorkloadSpec spec;
      spec.tenant = "t" + std::to_string(round);
      spec.vms = 1 + static_cast<int>(r % 3);
      spec.dp_util = 0.05 * static_cast<double>(r % 7);
      spec.cp_load = 0.5 * static_cast<double>(r % 5);
      const int expect = ReferencePlace(placer, spec);
      const fleet::Placement got = placer.Place(spec);
      if (expect < 0) {
        EXPECT_FALSE(got.admitted) << fleet::ToString(policy) << " round " << round;
      } else {
        ASSERT_TRUE(got.admitted) << fleet::ToString(policy) << " round " << round;
        EXPECT_EQ(got.node, expect) << fleet::ToString(policy) << " round " << round;
        admitted.push_back({got.node, spec});
      }
    }
    EXPECT_GT(placer.admitted(), 100u);
  }
}

// --- Idle-node fast path -------------------------------------------------

TEST(Cluster, IdleFastPathIsByteIdenticalToEventLoop) {
  // Mostly idle fleet: sparse timers on two of four nodes, nothing on the
  // others. The fast path must land every node exactly where the event loop
  // would — same clocks, same fire times, same event counts.
  struct Output {
    std::vector<sim::SimTime> fires;
    std::vector<uint64_t> events;
    std::vector<sim::SimTime> clocks;
  };
  auto run = [](bool fast) {
    fleet::ClusterConfig cfg = SmallCluster(4, 11);
    cfg.idle_fast_path = fast;
    fleet::Cluster cluster(cfg);
    Output out;
    for (size_t node : {0u, 2u}) {
      sim::Simulation* sim = &cluster.node(node).sim();
      // 7 ms period against a 2 ms epoch: most epochs see no event at all.
      sim->ScheduleRepeating(sim::Millis(7), sim::Millis(7),
                             [&out, sim] { out.fires.push_back(sim->Now()); });
    }
    cluster.RunFor(sim::Millis(60));
    for (size_t i = 0; i < cluster.size(); ++i) {
      out.events.push_back(cluster.node(i).sim().events_executed());
      out.clocks.push_back(cluster.node(i).sim().Now());
    }
    return out;
  };
  Output fast = run(true);
  Output slow = run(false);
  EXPECT_EQ(fast.fires, slow.fires);
  EXPECT_EQ(fast.events, slow.events);
  EXPECT_EQ(fast.clocks, slow.clocks);
  ASSERT_EQ(fast.fires.size(), 16u);  // 2 nodes x 8 fires in 60 ms.
  for (size_t i = 0; i < fast.clocks.size(); ++i) {
    EXPECT_EQ(fast.clocks[i], sim::Millis(60));
  }
}

// --- Flow-aggregate load generation --------------------------------------

TEST(LoadGen, AggregateModeBuildsFleetDistinctFlowPopulations) {
  fleet::ClusterConfig cfg = SmallCluster(4, 17);
  fleet::Cluster cluster(cfg);
  fleet::LoadGenConfig lcfg;
  lcfg.seed = 17;
  lcfg.vm_arrivals = false;
  lcfg.spawn_monitors = false;
  lcfg.aggregate.enabled = true;
  lcfg.aggregate.users_per_node = 200.0;
  lcfg.aggregate.pps_per_user = 200.0;
  lcfg.aggregate.flows_per_user = 1.0;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();
  ASSERT_EQ(load.node_mixes().size(), cluster.size());
  uint64_t population = 0;
  for (const fleet::LoadGen::NodeMix& mix : load.node_mixes()) {
    EXPECT_GT(mix.pps, 0.0);
    EXPECT_GT(mix.util, 0.0);
    // ~200 flows per node, spread across the node's DP CPUs.
    EXPECT_NEAR(static_cast<double>(mix.flows), 200.0, 8.0);
    population += mix.flows;
  }
  cluster.RunFor(sim::Millis(120));
  load.Stop();
  // The merged RX sketch must see close to the full fleet population: the
  // per-node salts make every node's flows distinct, so the fleet count
  // scales with node count instead of aliasing onto one node's population.
  const double distinct =
      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).DistinctFlows();
  EXPECT_GT(distinct, 0.80 * static_cast<double>(population));
  EXPECT_LT(distinct, 1.10 * static_cast<double>(population));
}

TEST(LoadGen, AggregateModeParallelRunIsByteIdenticalToSerial) {
  auto run = [](int threads) {
    fleet::ClusterConfig cfg = SmallCluster(4, 29);
    cfg.threads = threads;
    fleet::Cluster cluster(cfg);
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 29;
    lcfg.aggregate.enabled = true;
    lcfg.aggregate.users_per_node = 150.0;
    lcfg.aggregate.pps_per_user = 100.0;
    lcfg.vm_arrival_rate_per_sec = 100.0;
    fleet::LoadGen load(&cluster, lcfg);
    load.Start();
    cluster.RunFor(sim::Millis(60));
    load.Stop();
    std::string out = cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).ToJson(8);
    for (size_t i = 0; i < cluster.size(); ++i) {
      out += cluster.observability(i).metrics.Snapshot(cluster.Now()).ToJson();
      out += std::to_string(cluster.node(i).sim().events_executed());
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Runtime enable/disable and rollout ----------------------------------

TEST(RuntimeTaiChi, EnableDisableReenableQuiesces) {
  fleet::Cluster cluster(SmallCluster(1, 11));
  exp::Testbed& bed = cluster.node(0);
  EXPECT_FALSE(bed.taichi_enabled());

  bed.EnableTaiChi();
  cluster.RunFor(sim::Millis(5));
  EXPECT_TRUE(bed.taichi_enabled());
  ASSERT_NE(bed.taichi(), nullptr);

  // Workflows started while enabled complete on the widened CP set.
  bed.device_manager().StartVm(bed.cp_task_cpus());
  cluster.RunFor(sim::Millis(50));
  EXPECT_TRUE(bed.device_manager().AllDone());

  bed.DisableTaiChi();
  EXPECT_TRUE(bed.taichi_draining());
  cluster.RunFor(sim::Millis(20));
  EXPECT_FALSE(bed.taichi_enabled());
  EXPECT_FALSE(bed.taichi_draining());
  EXPECT_EQ(bed.taichi(), nullptr);

  // A second generation comes up cleanly after the first was destroyed.
  bed.EnableTaiChi();
  cluster.RunFor(sim::Millis(5));
  EXPECT_TRUE(bed.taichi_enabled());
  bed.device_manager().StartVm(bed.cp_task_cpus());
  cluster.RunFor(sim::Millis(50));
  EXPECT_TRUE(bed.device_manager().AllDone());
}

class RolloutTest : public ::testing::Test {
 protected:
  static fleet::Cluster MakeCluster() {
    fleet::ClusterConfig cfg = SmallCluster(2, 17);
    return fleet::Cluster(cfg);
  }

  static fleet::LoadGenConfig LoadCfg() {
    fleet::LoadGenConfig lcfg;
    lcfg.seed = 17;
    lcfg.vm_arrival_rate_per_sec = 200.0;
    return lcfg;
  }

  static fleet::RolloutConfig RolloutCfg(double threshold) {
    fleet::RolloutConfig rcfg;
    rcfg.waves = {1, 2};
    rcfg.settle = sim::Millis(10);
    rcfg.soak = sim::Millis(20);
    rcfg.slo.threshold = threshold;
    rcfg.slo.min_samples = 1;
    return rcfg;
  }
};

TEST_F(RolloutTest, ConvergesWhenSloHolds) {
  fleet::Cluster cluster = MakeCluster();
  fleet::LoadGen load(&cluster, LoadCfg());
  load.Start();
  cluster.RunFor(sim::Millis(20));

  fleet::Rollout rollout(&cluster, RolloutCfg(/*threshold=*/1e9));
  rollout.Start();
  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kSoaking);
  cluster.RunFor(sim::Millis(200));
  load.Stop();

  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kDone);
  EXPECT_EQ(rollout.enabled_nodes(), 2u);
  EXPECT_EQ(rollout.gate_reports().size(), 2u);
  EXPECT_TRUE(cluster.node(0).taichi_enabled());
  EXPECT_TRUE(cluster.node(1).taichi_enabled());
}

TEST_F(RolloutTest, RollsBackOnInjectedSloBreach) {
  fleet::Cluster cluster = MakeCluster();
  fleet::LoadGen load(&cluster, LoadCfg());
  load.Start();
  cluster.RunFor(sim::Millis(20));

  // An impossible SLO: the first completed startup breaches the gate.
  fleet::Rollout rollout(&cluster, RolloutCfg(/*threshold=*/1e-6));
  rollout.Start();
  EXPECT_TRUE(cluster.node(0).taichi_enabled());
  cluster.RunFor(sim::Millis(200));
  load.Stop();

  EXPECT_EQ(rollout.state(), fleet::Rollout::State::kRolledBack);
  EXPECT_EQ(rollout.enabled_nodes(), 0u);
  ASSERT_EQ(rollout.gate_reports().size(), 1u);
  EXPECT_TRUE(rollout.gate_reports()[0].fleet_breach);
  // The canary drained back to the baseline; node 1 was never touched.
  EXPECT_FALSE(cluster.node(0).taichi_enabled());
  EXPECT_FALSE(cluster.node(0).taichi_draining());
  EXPECT_EQ(cluster.node(0).taichi(), nullptr);
  EXPECT_FALSE(cluster.node(1).taichi_enabled());
}

}  // namespace
}  // namespace taichi
