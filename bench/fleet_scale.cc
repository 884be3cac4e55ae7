// Hyperscale fleet scaling: how far the per-node cost curve holds as the
// cluster grows from the paper's 12-node testbed toward hyperscale counts.
//
// Each sweep point builds a fresh cluster of N lean baseline nodes, drives
// it with the flow-aggregate load model (millions of users folded into
// per-node arrival-mix state, O(nodes) memory), and steps the whole fleet
// for a fixed slice of simulated time. The figure of merit is
// events/sec/node: flat means the simulator scales linearly in node count,
// which is what sharded epoch stepping + the idle fast path exist to
// deliver.
//
// `--json <path>` is the deterministic report (per-point event totals,
// per-node min/max, merged-sketch distinct flows): byte-identical across
// `--threads` values, which CI enforces with a t1 vs t4 `cmp`. Wall-clock
// numbers (events/sec, per-node rate ratios, peak RSS) go to the
// `--perf-json` sidecar only.
//
// The scaling gate compares every sweep point with a 12-node reference run
// made first in the same process and kept out of `--json`, so a single
// `--nodes N` run is gated too: the binary exits 1 if any point costs more
// than 2x the reference's wall time per event.
//
// Default sweep is {12, 256, 1024}; `--full` extends to {4096, 10240};
// `--nodes N` pins a single point. An unknown flag is a usage error (exit
// 2), not a silently different experiment.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"

using namespace taichi;

namespace {

// Fleet size of the reference run every sweep point is gated against: the
// paper's testbed.
constexpr int kReferenceNodes = 12;

struct Options {
  std::vector<int> nodes = {12, 256, 1024};
  int threads = 1;
  double duration_ms = 250.0;
  double users_per_node = 1000.0;
  double pps_per_user = 40.0;
  double flows_per_user = 1.0;
  std::string perf_json_path;
};

struct PointResult {
  int nodes = 0;
  uint64_t events_total = 0;
  uint64_t events_min = 0;   // Across nodes.
  uint64_t events_max = 0;
  uint64_t aggregate_flows = 0;  // Configured fleet flow population.
  double distinct_flows = 0;     // Merged RX HLL estimate.
  double aggregate_pps = 0;      // Offered fleet packets/sec.
  double wall_ms = 0;            // Host-dependent; perf sidecar only.

  // Simulated events per wall-clock second.
  double rate() const {
    return wall_ms > 0 ? static_cast<double>(events_total) / (wall_ms * 1e-3) : 0;
  }
};

PointResult RunPoint(const Options& opt, int nodes) {
  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = nodes;
  ccfg.seed = 42;
  ccfg.epoch = sim::Millis(5);
  ccfg.threads = opt.threads;
  ccfg.node.mode = exp::Mode::kBaseline;
  // Lean node: at 10k nodes the default 4096x4 sketches dominate memory for
  // no benefit at this offered load. The packet arena needs no trim: it
  // builds slots only for packets actually in flight.
  ccfg.node.flow_monitor.cms_width = 512;
  ccfg.node.flow_monitor.cms_depth = 2;
  ccfg.node.flow_monitor.topk_capacity = 16;
  fleet::Cluster cluster(ccfg);

  fleet::LoadGenConfig load;
  load.seed = 2024;
  load.aggregate.enabled = true;
  load.aggregate.users_per_node = opt.users_per_node;
  load.aggregate.pps_per_user = opt.pps_per_user;
  load.aggregate.flows_per_user = opt.flows_per_user;
  // The startup-workflow stream and the monitor fleet are the rollout
  // harness's subject; here they would only blur the events/sec signal.
  load.vm_arrivals = false;
  load.spawn_monitors = false;
  fleet::LoadGen gen(&cluster, load);
  gen.Start();

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.RunFor(sim::MillisF(opt.duration_ms));
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();
  gen.Stop();

  PointResult out;
  out.nodes = nodes;
  out.wall_ms = wall_ms;
  out.events_min = ~0ull;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const uint64_t e = cluster.node(i).sim().events_executed();
    out.events_total += e;
    out.events_min = std::min(out.events_min, e);
    out.events_max = std::max(out.events_max, e);
  }
  for (const fleet::LoadGen::NodeMix& mix : gen.node_mixes()) {
    out.aggregate_flows += mix.flows;
    out.aggregate_pps += mix.pps;
  }
  out.distinct_flows =
      cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kRx).DistinctFlows();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Fleet scale", "events/sec/node across 12 -> 10k-node fleets");

  Options opt;
  bool full = false;
  int single_nodes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--nodes") {
      single_nodes = bench::ParseFlag<int>("--nodes", value, 1);
    } else if (arg == "--threads") {
      opt.threads = bench::ParseFlag<int>("--threads", value, 1);
    } else if (arg == "--duration-ms") {
      opt.duration_ms = bench::ParseFlag<double>("--duration-ms", value, 0.0);
    } else if (arg == "--users") {
      opt.users_per_node = bench::ParseFlag<double>("--users", value, 0.0);
    } else if (arg == "--pps") {
      opt.pps_per_user = bench::ParseFlag<double>("--pps", value, 0.0);
    } else if (arg == "--flows-per-user") {
      opt.flows_per_user = bench::ParseFlag<double>("--flows-per-user", value, 0.0);
    } else if (arg == "--perf-json") {
      opt.perf_json_path = value;
    } else if (arg != "--json") {  // --json is read by bench::JsonReport.
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (single_nodes > 0) {
    opt.nodes = {single_nodes};
  } else if (full) {
    opt.nodes = {12, 256, 1024, 4096, 10240};
  }

  std::printf("running the %d-node reference (%.0f ms sim, %d threads)...\n", kReferenceNodes,
              opt.duration_ms, opt.threads);
  std::fflush(stdout);
  const PointResult ref = RunPoint(opt, kReferenceNodes);
  const double ref_rate = ref.rate();

  std::vector<PointResult> points;
  points.reserve(opt.nodes.size());
  for (int n : opt.nodes) {
    std::printf("running %d nodes (%.0f ms sim, %d threads)...\n", n, opt.duration_ms,
                opt.threads);
    std::fflush(stdout);
    points.push_back(RunPoint(opt, n));
  }

  // The scaling verdict: wall cost per simulated event. Total event count
  // grows linearly with the fleet, so flat events/sec (equivalently flat
  // us/event) means the simulator is linear in node count — per-node wall
  // rate divided by N would collapse by construction on fixed hardware.
  sim::Table t({"Nodes", "Events", "Ev/node min..max", "Flows (cfg)", "Flows (HLL)",
                "Wall (ms)", "Mev/s", "us/event", "vs ref"});
  for (const PointResult& p : points) {
    const double rate = p.rate();
    t.AddRow({std::to_string(p.nodes), std::to_string(p.events_total),
              std::to_string(p.events_min) + ".." + std::to_string(p.events_max),
              std::to_string(p.aggregate_flows), sim::Table::Num(p.distinct_flows, 0),
              sim::Table::Num(p.wall_ms, 0), sim::Table::Num(rate / 1e6, 2),
              sim::Table::Num(rate > 0 ? 1e6 / rate : 0, 3),
              ref_rate > 0 ? sim::Table::Num(rate / ref_rate, 2) + "x" : "-"});
  }
  t.Print();

  // No `threads` key here: thread count is host config and the whole point
  // is that it cannot change these numbers (CI byte-compares t1 vs t4).
  bench::JsonReport json("fleet_scale", argc, argv);
  json.Config("duration_ms", opt.duration_ms);
  json.Config("users_per_node", opt.users_per_node);
  json.Config("pps_per_user", opt.pps_per_user);
  json.Config("flows_per_user", opt.flows_per_user);
  for (const PointResult& p : points) {
    const std::string k = "n" + std::to_string(p.nodes) + ".";
    json.Metric(k + "events_total", static_cast<int64_t>(p.events_total));
    json.Metric(k + "events_per_node_min", static_cast<int64_t>(p.events_min));
    json.Metric(k + "events_per_node_max", static_cast<int64_t>(p.events_max));
    json.Metric(k + "aggregate_flows", static_cast<int64_t>(p.aggregate_flows));
    json.Metric(k + "aggregate_pps", p.aggregate_pps);
    json.Metric(k + "distinct_flows_hll", p.distinct_flows);
  }
  if (!json.Write()) {
    return 1;
  }

  if (!opt.perf_json_path.empty()) {
    // Host-dependent sidecar: wall clock and the derived scaling ratios stay
    // out of the deterministic report (CI byte-compares that one).
    bench::JsonReport perf("fleet_scale_perf", opt.perf_json_path);
    perf.Config("threads", static_cast<int64_t>(opt.threads));
    perf.Config("hw_cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
    perf.Config("reference_nodes", static_cast<int64_t>(kReferenceNodes));
    perf.Metric("reference.wall_ms", ref.wall_ms);
    perf.Metric("reference.us_per_event", ref_rate > 0 ? 1e6 / ref_rate : 0);
    for (const PointResult& p : points) {
      const std::string k = "n" + std::to_string(p.nodes) + ".";
      const double rate = p.rate();
      perf.Metric(k + "wall_ms", p.wall_ms);
      perf.Metric(k + "events_per_sec", rate);
      perf.Metric(k + "us_per_event", rate > 0 ? 1e6 / rate : 0);
      perf.Metric(k + "rate_vs_reference", ref_rate > 0 ? rate / ref_rate : 0);
    }
    perf.Metric("peak_rss_mb", bench::PeakRssMb());
    if (!perf.Write()) {
      return 1;
    }
  }

  // The acceptance shape: every sweep point keeps its per-event wall cost
  // within 2x of the reference run's.
  bool shape_ok = true;
  for (const PointResult& p : points) {
    if (ref_rate > 0 && p.rate() * 2 < ref_rate) {
      shape_ok = false;
    }
  }
  std::printf("\n%s: per-event wall cost within 2x of the %d-node reference (%.3f us/event)\n",
              shape_ok ? "PASS" : "SHAPE MISMATCH", kReferenceNodes,
              ref_rate > 0 ? 1e6 / ref_rate : 0);
  return shape_ok ? 0 : 1;
}
