// Fleet rollout (§6.6): staged Tai Chi enablement across a 12-node cluster
// under 4x instance density.
//
// Every node starts as the production baseline (static partitioning) and is
// driven with the Fig. 3 fleet traffic mix plus a sustained VM-startup
// arrival stream sized so that the baseline control plane cannot hold the
// 160 ms startup SLO. The rollout then enables Tai Chi canary-first: at the
// first gate the canary nodes already sit inside the SLO while the
// still-baseline nodes breach it, and once the staged waves cover the fleet
// the fleet-wide p99 converges under the SLO.
//
// `--json <path>` writes the machine-readable report; `--trace <path>`
// writes the merged per-node Chrome trace; `--wavelog <path>` writes the
// rollout wave log. All three are byte-identical across same-seed reruns
// AND across `--threads` values: nodes are stepped in parallel within each
// epoch, but every node owns its clock/Rng/observability, so thread count
// cannot change what the simulation computes. Host-dependent numbers (wall
// clock, thread count, peak RSS) go to the separate `--perf-json <path>`
// sidecar.
//
// `--scenario <name>` swaps the offered load while the rollout machinery
// stays fixed: `baseline` (default, byte-identical to the historical
// harness), `diurnal` (day/night curve), `ddos` (spoofed flood at node 0),
// `crash-churn` (random node crashes with auto-restart; rebooted nodes
// rejoin the rollout's enabled set).
//
// `--autopilot` replaces the staged-wave rollout with the closed-loop
// controller (src/fleet/autopilot.h) on a heterogeneous hot/cool fleet:
// instead of pre-planned waves, the autopilot discovers which nodes need
// Tai Chi from the SLO signal alone and leaves the cool nodes' vCPU budget
// unspent. Prints the decision log and the enabled-vs-static vCPU contrast.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench/common.h"
#include "src/fleet/autopilot.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"
#include "src/scenario/chaos.h"
#include "src/scenario/generators.h"
#include "src/scenario/library.h"

using namespace taichi;

namespace {
constexpr int kNodes = 12;
constexpr int kDensity = 4;
constexpr double kStartupSloMs = 160.0;
constexpr double kHostInstantiateMs = 60.0;
// The SmartNIC-side budget: total SLO minus the host-side instantiation
// work that happens after the device workflow completes.
constexpr double kNicSloMs = kStartupSloMs - kHostInstantiateMs;

// --autopilot: closed-loop convergence instead of staged waves. A third of
// the fleet carries density-4 tenants (baseline cannot hold them), the rest
// density-1 (baseline holds easily); the controller has to find the hot
// subset from the SLO signal and leave the rest alone.
int RunAutopilot(int argc, char** argv, int threads) {
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = 42;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = threads;
  ccfg.node.mode = exp::Mode::kBaseline;
  const int hot = kNodes / 3;
  ccfg.tweak = [hot](int node, exp::TestbedConfig& cfg) {
    const int d = node < hot ? kDensity : 1;
    cfg.vm_startup.devices_per_vm = 6 * d;
    cfg.monitors.count = 6 * d;
  };
  fleet::Cluster cluster(ccfg);

  fleet::LoadGenConfig load = scenario::Fig3DensityMix(1).load;
  load.node_vm_scale.assign(static_cast<size_t>(kNodes), 1.0);
  for (int i = 0; i < hot; ++i) {
    load.node_vm_scale[static_cast<size_t>(i)] = kDensity;
  }
  scenario::Fig3Source source(load);
  source.Start(cluster);

  // p90 against the NIC-side budget: the same defended SLO the autopilot
  // scenarios use (one hurting node must stand out of a healthy fleet tail).
  fleet::AutopilotConfig acfg;
  acfg.slo.threshold = kNicSloMs;
  acfg.slo.percentile = 90.0;
  acfg.slo.min_samples = 8;
  acfg.slo.hotspot_factor = 1.3;
  fleet::Autopilot autopilot(&cluster, &source, acfg);

  fleet::SloMonitor monitor(&cluster, acfg.slo);

  // Phase 1: everyone baseline — the hot third breaches, the rest holds.
  cluster.RunFor(sim::Millis(300));
  const fleet::SloMonitor::Report before = monitor.Observe();

  // Phase 2: the controller converges the fleet (enables ride hysteresis +
  // settle windows, so give it room), then a fresh window grades the result.
  autopilot.Arm();
  cluster.RunFor(sim::Millis(2000));
  monitor.Observe();  // Reset the window to post-convergence samples only.
  cluster.RunFor(sim::Millis(400));
  const fleet::SloMonitor::Report after = monitor.Observe();
  autopilot.Disarm();
  source.Stop(cluster);

  std::printf("autopilot: converged in %zu windows\n", autopilot.windows());
  for (const fleet::Autopilot::Decision& d : autopilot.decisions()) {
    std::printf("  [%8.1f ms] %-9s node %2d%s%s  (%.2f)\n", sim::ToSeconds(d.at) * 1e3,
                fleet::ToString(d.act), d.node, d.target >= 0 ? " -> " : "",
                d.target >= 0 ? std::to_string(d.target).c_str() : "", d.value);
  }

  int static_vcpus = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const exp::TestbedConfig& cfg = cluster.node(i).config();
    const int v = cfg.taichi.num_vcpus > 0 ? cfg.taichi.num_vcpus : cfg.dp_cpu_count;
    static_vcpus += v;
  }

  sim::Table t({"Node", "Density", "Mode at end", "p90 before (ms)", "p90 after (ms)"});
  for (size_t i = 0; i < cluster.size(); ++i) {
    t.AddRow({cluster.node_name(i), std::to_string(i < static_cast<size_t>(hot) ? kDensity : 1),
              cluster.node(i).taichi_enabled() ? "taichi" : "baseline",
              before.nodes[i].samples > 0 ? sim::Table::Num(before.nodes[i].value, 1) : "-",
              after.nodes[i].samples > 0 ? sim::Table::Num(after.nodes[i].value, 1) : "-"});
  }
  t.Print();

  std::printf("\nfleet p90 NIC-side startup (SLO %.0f ms)\n", kNicSloMs);
  std::printf("  before autopilot: %8.1f ms (%zu samples)\n", before.fleet_value,
              before.total_samples);
  std::printf("  after autopilot:  %8.1f ms (%zu samples)\n", after.fleet_value,
              after.total_samples);
  std::printf("vCPU budget: %d vCPUs on %d Tai Chi nodes (static placement: %d)\n",
              autopilot.enabled_vcpus(), autopilot.enabled_nodes(), static_vcpus);

  bench::JsonReport json("fleet_rollout_autopilot", argc, argv);
  json.Config("nodes", static_cast<int64_t>(kNodes));
  json.Config("hot_nodes", static_cast<int64_t>(hot));
  json.Config("seed", static_cast<int64_t>(ccfg.seed));
  json.Config("slo_ms", kNicSloMs);
  json.Metric("before.p90_ms", before.fleet_value);
  json.Metric("after.p90_ms", after.fleet_value);
  json.Metric("enables", static_cast<int64_t>(autopilot.enables()));
  json.Metric("enabled_vcpus", static_cast<int64_t>(autopilot.enabled_vcpus()));
  json.Metric("static_vcpus", static_cast<int64_t>(static_vcpus));
  if (!json.Write()) {
    return 1;
  }

  const bool shape_ok = before.fleet_breach && !after.fleet_breach &&
                        autopilot.enabled_nodes() >= 1 &&
                        autopilot.enabled_vcpus() < static_vcpus;
  std::printf("\n%s: the autopilot converges the fleet under the SLO on fewer vCPUs\n",
              shape_ok ? "PASS" : "SHAPE MISMATCH");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Fleet rollout", "staged Tai Chi enablement vs the VM-startup SLO (§6.6)");

  std::string trace_path;
  std::string wavelog_path;
  std::string perf_json_path;
  std::string flows_json_path;
  std::string scenario_name = "baseline";
  int threads = 1;
  bool autopilot_mode = false;
  // Boolean flags first: the valued-flag loop below stops one short of the
  // last argument, which is exactly where a lone `--autopilot` sits.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--autopilot") == 0) {
      autopilot_mode = true;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace_path = argv[i + 1];
    } else if (arg == "--wavelog") {
      wavelog_path = argv[i + 1];
    } else if (arg == "--perf-json") {
      perf_json_path = argv[i + 1];
    } else if (arg == "--flows-json") {
      flows_json_path = argv[i + 1];
    } else if (arg == "--scenario") {
      scenario_name = argv[i + 1];
    } else if (arg == "--threads") {
      threads = bench::ParseFlag<int>("--threads", argv[i + 1], 1);
    }
  }
  if (autopilot_mode) {
    return RunAutopilot(argc, argv, threads);
  }
  if (scenario_name != "baseline" && scenario_name != "diurnal" && scenario_name != "ddos" &&
      scenario_name != "crash-churn") {
    std::fprintf(stderr,
                 "--scenario must be baseline, diurnal, ddos or crash-churn (got '%s')\n",
                 scenario_name.c_str());
    return 2;
  }

  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = 42;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = threads;
  ccfg.node.mode = exp::Mode::kBaseline;
  ccfg.enable_trace = !trace_path.empty();
  ccfg.trace_capacity = 1 << 12;  // Per node; the merge multiplies by kNodes.
  // The Fig. 3 density mix (load shape + per-node tweak) has one definition,
  // in the scenario library; this harness and the scenario suite share it.
  // At 4x density each workflow provisions 24 devices (~37 ms of CP work),
  // so 30 arrivals/s/density saturates the 4 static CP CPUs — the baseline
  // queues and breaches while Tai Chi's donated DP cycles absorb it.
  const scenario::Fig3Mix mix = scenario::Fig3DensityMix(kDensity);
  ccfg.tweak = mix.tweak;
  fleet::Cluster cluster(ccfg);

  std::unique_ptr<scenario::TrafficSource> source;
  std::unique_ptr<scenario::ChaosEngine> chaos;
  if (scenario_name == "diurnal") {
    scenario::DiurnalConfig dcfg;
    dcfg.load = mix.load;
    dcfg.trough = 0.50;
    dcfg.peak = 1.40;
    source = std::make_unique<scenario::DiurnalSource>(dcfg);
  } else if (scenario_name == "ddos") {
    scenario::DdosConfig acfg;
    acfg.load = mix.load;
    acfg.targets = {0};
    acfg.attackers = 12;
    acfg.utilization = 0.50;
    acfg.size_bytes = 512;
    acfg.start_after = sim::Millis(100);
    source = std::make_unique<scenario::DdosSource>(acfg);
  } else {
    source = std::make_unique<scenario::Fig3Source>(mix.load);
  }
  if (scenario_name == "crash-churn") {
    scenario::ChaosConfig chcfg;
    chcfg.crash_prob = 0.002;
    chcfg.down_time = sim::Millis(40);
    chcfg.seed = 0x5eedull ^ ccfg.seed;
    chcfg.min_alive = kNodes - 2;
    chaos = std::make_unique<scenario::ChaosEngine>(&cluster, chcfg);
    // Listener order is the restart re-provision order: the traffic source
    // re-provisions load first, then the rollout (registered in phase 2)
    // re-enables Tai Chi on enabled-set nodes.
    chaos->AddListener(source.get());
  }
  source->Start(cluster);
  if (chaos != nullptr) {
    chaos->Arm();
  }

  fleet::SloConfig slo;
  slo.threshold = kNicSloMs;
  slo.percentile = 99.0;
  slo.min_samples = 20;
  fleet::SloMonitor monitor(&cluster, slo);

  // Wall clock around the epoch-stepping phases only (construction is
  // serial by design). This is the number --threads exists to shrink.
  const auto wall_start = std::chrono::steady_clock::now();

  // Phase 1: the whole fleet on the baseline. At 4x density the CP cannot
  // keep up and the startup SLO breaches fleet-wide.
  cluster.RunFor(sim::Millis(300));
  fleet::SloMonitor::Report before = monitor.Observe();

  // Phase 2: canary -> staged -> full rollout, each wave gated on the SLO.
  fleet::RolloutConfig rcfg;
  rcfg.waves = {2, 6, kNodes};
  // Later waves join with more queueing debt (they ran overloaded longer),
  // so the settle must cover the deepest backlog's drain time.
  rcfg.settle = sim::Millis(600);
  rcfg.soak = sim::Millis(300);
  rcfg.slo = slo;
  fleet::Rollout rollout(&cluster, rcfg);
  if (chaos != nullptr) {
    // Chaos restarts that land after a node was rolled onto Tai Chi must
    // re-enable it — the rollout observes them through the same lifecycle
    // path as every other listener.
    chaos->AddListener(&rollout);
  }
  rollout.Start();
  const sim::SimTime rollout_deadline = cluster.Now() + sim::Seconds(5);
  while (rollout.state() == fleet::Rollout::State::kSoaking &&
         cluster.Now() < rollout_deadline) {
    cluster.RunFor(sim::Millis(50));
  }

  // Phase 3: the converged fleet.
  monitor.Observe();  // Reset the window to post-rollout samples only.
  cluster.RunFor(sim::Millis(400));
  fleet::SloMonitor::Report after = monitor.Observe();
  if (chaos != nullptr) {
    // No new faults, but already-queued auto-restarts still fire so the
    // fleet ends whole.
    chaos->Quiesce();
    for (int i = 0; chaos->pending_restarts() > 0 && i < 64; ++i) {
      cluster.RunFor(ccfg.epoch);
    }
  }
  source->Stop(cluster);
  if (chaos != nullptr) {
    chaos->Disarm();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf("threads: %d, wall: %.0f ms\n", threads, wall_ms);
  if (scenario_name != "baseline") {
    std::printf("scenario: %s (source: %s)\n", scenario_name.c_str(), source->name());
  }
  if (chaos != nullptr) {
    std::printf("chaos: %d crashes, %d restarts, %zu pending, %zu/%d nodes up\n",
                chaos->crashes(), chaos->restarts(), chaos->pending_restarts(),
                cluster.alive_count(), kNodes);
  }
  std::printf("rollout: %s after %zu gates\n",
              rollout.state() == fleet::Rollout::State::kDone        ? "converged"
              : rollout.state() == fleet::Rollout::State::kRolledBack ? "ROLLED BACK"
                                                                      : "timed out",
              rollout.gate_reports().size());
  for (const fleet::Rollout::Event& e : rollout.history()) {
    std::printf("  [%8.1f ms] %s\n", sim::ToSeconds(e.at) * 1e3, e.what.c_str());
  }

  // The §6.6 split: at the first gate, the canary nodes hold the SLO the
  // baseline nodes are breaching.
  if (!rollout.gate_reports().empty()) {
    const fleet::SloMonitor::Report& gate = rollout.gate_reports().front();
    sim::Table t({"Node", "Mode at gate", "p99 (ms, +host)", "vs SLO"});
    for (size_t i = 0; i < gate.nodes.size(); ++i) {
      const fleet::SloMonitor::NodeStat& n = gate.nodes[i];
      const bool canary = i < static_cast<size_t>(rcfg.waves[0]);
      if (n.samples == 0) {
        t.AddRow({cluster.node_name(i), canary ? "taichi" : "baseline", "no samples", "-"});
        continue;
      }
      t.AddRow({cluster.node_name(i), canary ? "taichi" : "baseline",
                sim::Table::Num(n.value + kHostInstantiateMs, 1),
                sim::Table::Num((n.value + kHostInstantiateMs) / kStartupSloMs, 2) + "x"});
    }
    t.Print();
  }

  std::printf("\nfleet p99 startup (ms, incl. %.0f ms host side; SLO %.0f ms)\n",
              kHostInstantiateMs, kStartupSloMs);
  std::printf("  before rollout: %8.1f  (%.2fx SLO, %zu samples)\n",
              before.fleet_value + kHostInstantiateMs,
              (before.fleet_value + kHostInstantiateMs) / kStartupSloMs, before.total_samples);
  std::printf("  after rollout:  %8.1f  (%.2fx SLO, %zu samples)\n",
              after.fleet_value + kHostInstantiateMs,
              (after.fleet_value + kHostInstantiateMs) / kStartupSloMs, after.total_samples);

  // Fleet-wide heavy hitters from the merged per-node DP sketches: the flows
  // that burned the data-plane cycles during the rollout, named without any
  // exact per-flow table existing anywhere. Stdout + the --flows-json
  // sidecar only — the pinned --json report is unchanged.
  const obs::FlowMonitor fleet_flows =
      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kDp);
  std::printf("\nfleet DP flow telemetry: ~%.0f distinct flows, %llu packets\n",
              fleet_flows.DistinctFlows(),
              static_cast<unsigned long long>(fleet_flows.total_packets()));
  {
    sim::Table t({"Heavy flow (DP tap)", "MB", "kpkts", "share"});
    const double total = static_cast<double>(fleet_flows.total_bytes());
    for (const auto& e : fleet_flows.TopK(8)) {
      t.AddRow({e.key.ToString(), sim::Table::Num(static_cast<double>(e.bytes) / 1e6, 1),
                sim::Table::Num(static_cast<double>(e.packets) / 1e3, 1),
                sim::Table::Num(total > 0 ? 100.0 * static_cast<double>(e.bytes) / total : 0.0,
                                1) +
                    "%"});
    }
    t.Print();
  }

  bench::JsonReport json("fleet_rollout", argc, argv);
  json.Config("nodes", static_cast<int64_t>(kNodes));
  json.Config("density", static_cast<int64_t>(kDensity));
  json.Config("seed", static_cast<int64_t>(ccfg.seed));
  if (scenario_name != "baseline") {
    // Only non-default runs name their scenario: the default report must
    // stay byte-identical to the pre-scenario harness.
    json.Config("scenario", scenario_name);
  }
  json.Config("vm_arrival_rate_per_sec", mix.load.vm_arrival_rate_per_sec);
  json.Config("slo_ms", kStartupSloMs);
  json.Config("soak_ms", sim::ToSeconds(rcfg.soak) * 1e3);
  json.Metric("rollout_done", static_cast<int64_t>(rollout.state() == fleet::Rollout::State::kDone));
  json.Metric("gates", static_cast<int64_t>(rollout.gate_reports().size()));
  json.Metric("before.p99_ms", before.fleet_value + kHostInstantiateMs);
  json.Metric("before.samples", static_cast<int64_t>(before.total_samples));
  json.Metric("after.p99_ms", after.fleet_value + kHostInstantiateMs);
  json.Metric("after.samples", static_cast<int64_t>(after.total_samples));
  if (!rollout.gate_reports().empty()) {
    const fleet::SloMonitor::Report& gate = rollout.gate_reports().front();
    sim::Summary canary_ms, baseline_ms;
    for (size_t i = 0; i < gate.nodes.size(); ++i) {
      if (gate.nodes[i].samples == 0) {
        continue;
      }
      (i < static_cast<size_t>(rcfg.waves[0]) ? canary_ms : baseline_ms)
          .Add(gate.nodes[i].value + kHostInstantiateMs);
    }
    if (!canary_ms.empty()) {
      json.Metric("gate0.canary_p99_ms.mean", canary_ms.mean());
    }
    if (!baseline_ms.empty()) {
      json.Metric("gate0.baseline_p99_ms.mean", baseline_ms.mean());
    }
  }
  json.Metric("fleet.startup_ms", cluster.MergeSummaryMetric("cp.vm_startup.latency_ms"));
  if (!json.Write()) {
    return 1;
  }
  if (!trace_path.empty() && !cluster.WriteMergedTrace(trace_path)) {
    return 1;
  }
  if (!wavelog_path.empty()) {
    // Simulated-time wave log: part of the byte-identical output contract.
    std::FILE* f = std::fopen(wavelog_path.c_str(), "w");
    if (f == nullptr) {
      TAICHI_ERROR(0, "bench: cannot open '%s' for writing", wavelog_path.c_str());
      return 1;
    }
    for (const fleet::Rollout::Event& e : rollout.history()) {
      std::fprintf(f, "[%8.1f ms] %s\n", sim::ToSeconds(e.at) * 1e3, e.what.c_str());
    }
    std::fclose(f);
  }
  if (!flows_json_path.empty()) {
    // Flow observability sidecar: the merged fleet sketches per tap. Fully
    // deterministic (sketches are seeded and merge is order-independent),
    // but kept out of the pinned --json report so its golden stays stable
    // as sketch telemetry evolves.
    std::string out = "{\n\"rx\": " +
                      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).ToJson(8) +
                      ",\n\"dp\": " + fleet_flows.ToJson(8) + ",\n\"tx\": " +
                      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kTx).ToJson(8) +
                      "\n}\n";
    std::FILE* f = std::fopen(flows_json_path.c_str(), "w");
    if (f == nullptr) {
      TAICHI_ERROR(0, "bench: cannot open '%s' for writing", flows_json_path.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }
  if (!perf_json_path.empty()) {
    // Host-dependent sidecar; deliberately not part of the main report so
    // `--json` output stays byte-identical across thread counts.
    bench::JsonReport perf("fleet_rollout_perf", perf_json_path);
    perf.Config("nodes", static_cast<int64_t>(kNodes));
    perf.Config("threads", static_cast<int64_t>(threads));
    perf.Config("hw_cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
    perf.Metric("wall_ms", wall_ms);
    perf.Metric("sim_ms", sim::ToSeconds(cluster.Now()) * 1e3);
    perf.Metric("peak_rss_mb", bench::PeakRssMb());
    if (!perf.Write()) {
      return 1;
    }
  }

  const bool shape_ok = rollout.state() == fleet::Rollout::State::kDone &&
                        before.fleet_value + kHostInstantiateMs > kStartupSloMs &&
                        after.fleet_value + kHostInstantiateMs < kStartupSloMs;
  std::printf("\n%s: baseline breaches the SLO, the staged rollout converges under it\n",
              shape_ok ? "PASS" : "SHAPE MISMATCH");
  return 0;
}
