// Simulator ledger: runs one fleet-simulator workload as a batch job through
// the libraries' public API and times each layer from the outside.
//
//   ledger --workload <rollout12|fleet256|autopilot-ddos> --seed N --report PATH
//          [--trace SPANS_PATH] [--threads T] [--sim-ms MS]
//
// One invocation is one process running one workload, so the VmHWM it reports
// is that workload's peak RSS. It prints one JSON object on stdout: host times
// for set-up (Cluster construction + traffic-source start), stepping (the
// Cluster::RunFor phase), report and teardown, peak RSS, the workload verdict
// and, with --trace, the per-layer numbers. The
// deterministic report (simulated quantities only, no host numbers and no
// thread count) goes to --report; perfbench/run.py hashes it against the
// pinned digest.
//
// --trace records host-time spans (name, start, end, parent) around every
// public call the ledger makes: set-up, each epoch and the control hooks
// bracketed by harness hooks registered before and after them, each report
// call, and the isolated replays that run after the timed window. Spans stay
// in memory and are written to SPANS_PATH at exit. Nothing inside src/ is
// instrumented: layer costs come from these spans, from the layers' own
// public counters, and from isolated replays of each layer's hot call.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/autopilot.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"
#include "src/fleet/rollout.h"
#include "src/fleet/slo_monitor.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/scenario/generators.h"
#include "src/scenario/library.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/thread_pool.h"

using namespace taichi;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host-time spans kept in memory. Off, every call is a single branch.
class Spans {
 public:
  struct Span {
    const char* name;
    double start = 0;  // Seconds since the ledger started.
    double end = 0;
    int parent = -1;
  };

  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  double Now() const { return SecondsSince(origin_); }

  int Open(const char* name) {
    if (!on_) {
      return -1;
    }
    spans_.push_back({name, Now(), 0, Parent()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end = Now();
    open_.pop_back();
  }
  // A closed span measured by the caller, parented to the innermost open one.
  void Add(const char* name, double start, double end) {
    if (on_) {
      spans_.push_back({name, start, end, Parent()});
    }
  }

  bool Write(const std::string& path) const {
    obs::JsonWriter w;
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject()
          .Field("name", s.name)
          .Field("start_us", s.start * 1e6)
          .Field("end_us", s.end * 1e6)
          .Field("parent", s.parent)
          .EndObject();
    }
    w.EndArray();
    std::ofstream out(path);
    out << w.str() << '\n';
    return static_cast<bool>(out);
  }

 private:
  int Parent() const { return open_.empty() ? -1 : open_.back(); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Spans& spans, const char* name) : spans_(spans), id_(spans.Open(name)) {}
  ~Scope() { spans_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// Epoch accounting around Cluster::RunFor. With tracing on it registers a
// harness hook before the workload's control hooks (Rollout, Autopilot) and
// one after them, so each epoch splits into node stepping (previous post-hook
// to this pre-hook) and control (pre-hook to post-hook). The pre-hook also
// samples every node's event-queue depth at the boundary.
class Stepper {
 public:
  Stepper(fleet::Cluster& cluster, Spans& spans) : cluster_(cluster), spans_(spans) {
    if (spans_.on()) {
      pre_id_ = cluster_.AddEpochHook([this](sim::SimTime) { PreHook(); });
      post_id_ = cluster_.AddEpochHook([this](sim::SimTime) { PostHook(); });
    }
  }
  ~Stepper() {
    if (spans_.on()) {
      cluster_.RemoveEpochHook(pre_id_);
      cluster_.RemoveEpochHook(post_id_);
    }
  }
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;

  void RunFor(sim::Duration d) {
    mark_ = spans_.Now();
    cluster_.RunFor(d);
  }

  // Runs `arm`, which registers control hooks, keeping the post-hook last.
  template <typename F>
  void AddControl(F&& arm) {
    arm();
    if (spans_.on()) {
      cluster_.RemoveEpochHook(post_id_);
      post_id_ = cluster_.AddEpochHook([this](sim::SimTime) { PostHook(); });
    }
  }

  fleet::SloMonitor::Report Observe(fleet::SloMonitor& monitor) {
    const int id = spans_.Open("slo_observe");
    const Clock::time_point t0 = Clock::now();
    fleet::SloMonitor::Report r = monitor.Observe();
    slo_observe_s_ += SecondsSince(t0);
    spans_.Close(id);
    return r;
  }

  const std::vector<double>& epoch_s() const { return epoch_s_; }
  double control_s() const { return control_s_; }
  double slo_observe_s() const { return slo_observe_s_; }
  size_t pending_peak() const { return pending_peak_; }
  size_t slots_peak() const { return slots_peak_; }

 private:
  void PreHook() {
    pre_ = spans_.Now();
    spans_.Add("epoch", mark_, pre_);
    epoch_s_.push_back(pre_ - mark_);
    for (size_t i = 0; i < cluster_.size(); ++i) {
      pending_peak_ = std::max(pending_peak_, cluster_.node(i).sim().pending_events());
      slots_peak_ = std::max(slots_peak_, cluster_.node(i).sim().event_pool_slots());
    }
  }
  void PostHook() {
    mark_ = spans_.Now();
    spans_.Add("control", pre_, mark_);
    control_s_ += mark_ - pre_;
  }

  fleet::Cluster& cluster_;
  Spans& spans_;
  uint64_t pre_id_ = 0;
  uint64_t post_id_ = 0;
  double mark_ = 0;
  double pre_ = 0;
  std::vector<double> epoch_s_;
  double control_s_ = 0;
  double slo_observe_s_ = 0;
  size_t pending_peak_ = 0;
  size_t slots_peak_ = 0;
};

// --- Workloads ---------------------------------------------------------------
//
// The seed is the cluster seed: it sets every node's random stream (packet
// gaps, MMPP bursts, CP task behaviour). The fleet shape itself — the Fig. 3
// per-CPU utilization draws and the VM-arrival stream, which come from the
// load generator's seed — is part of the workload definition and stays fixed,
// so every seed simulates a comparable amount of work.
constexpr uint64_t kLoadSeed = 2024;
// autopilot-ddos keeps the load seed scenario::BuildScenario derives for its
// default seed 42, so its fleet matches the library scenario's.
constexpr uint64_t kScenarioLoadSeed = 2024u ^ (42 * 0x9e3779b97f4a7c15ULL);

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the cluster and starts its traffic sources (the timed set-up).
  virtual void Setup(uint64_t seed, int threads) = 0;
  // Every Cluster::RunFor of the workload (the timed stepping phase).
  virtual void Step(Stepper& stepper) = 0;
  // Ends offered load; first call of the timed report phase.
  virtual void Stop() = 0;
  // Workload-specific verdict fields; returns whether the mechanism the
  // workload exists for engaged.
  virtual bool Verdict(obs::JsonWriter& w) = 0;
  virtual size_t Decisions() const { return 0; }

  fleet::Cluster& cluster() { return *cluster_; }

 protected:
  std::unique_ptr<fleet::Cluster> cluster_;
};

// §6.6 staged rollout on 12 nodes at 4x density: baseline phase, then the
// canary -> staged -> full Tai Chi rollout gated on the VM-startup SLO.
class Rollout12 : public Workload {
 public:
  explicit Rollout12(sim::Duration sim_time) : sim_time_(sim_time) {}

  void Setup(uint64_t seed, int threads) override {
    const scenario::Fig3Mix mix = scenario::Fig3DensityMix(kDensity);
    fleet::ClusterConfig ccfg;
    ccfg.num_nodes = 12;
    ccfg.seed = seed;
    ccfg.epoch = sim::Millis(5);
    ccfg.threads = threads;
    ccfg.node.mode = exp::Mode::kBaseline;
    ccfg.tweak = mix.tweak;
    cluster_ = std::make_unique<fleet::Cluster>(ccfg);
    fleet::LoadGenConfig load = mix.load;
    load.seed = kLoadSeed;
    source_ = std::make_unique<scenario::Fig3Source>(load);
    source_->Start(*cluster_);
  }

  void Step(Stepper& stepper) override {
    fleet::SloConfig slo;
    slo.threshold = kNicSloMs;
    slo.percentile = 99.0;
    slo.min_samples = 20;
    monitor_ = std::make_unique<fleet::SloMonitor>(cluster_.get(), slo);

    // Baseline phase (the first third), then the rollout; the first wave
    // enables at Start(), later waves once their SLO gates pass.
    const sim::Duration baseline = sim_time_ / 3;
    stepper.RunFor(baseline);
    before_ = stepper.Observe(*monitor_);

    fleet::RolloutConfig rcfg;
    rcfg.waves = {2, 6, 12};
    rcfg.settle = sim::Millis(100);
    rcfg.soak = sim::Millis(100);
    rcfg.slo = slo;
    rollout_ = std::make_unique<fleet::Rollout>(cluster_.get(), rcfg);
    stepper.AddControl([this] { rollout_->Start(); });
    while (cluster_->Now() < sim_time_) {
      stepper.RunFor(std::min<sim::Duration>(sim::Millis(50), sim_time_ - cluster_->Now()));
    }
    after_ = stepper.Observe(*monitor_);
  }

  void Stop() override { source_->Stop(*cluster_); }

  bool Verdict(obs::JsonWriter& w) override {
    const bool rolled_back = rollout_->state() == fleet::Rollout::State::kRolledBack;
    w.Field("rolled_back", rolled_back)
        .Field("enabled_nodes", static_cast<uint64_t>(rollout_->enabled_nodes()))
        .Field("gates", static_cast<uint64_t>(rollout_->gate_reports().size()))
        .Field("before_p99_ms", before_.fleet_value)
        .Field("before_samples", static_cast<uint64_t>(before_.total_samples))
        .Field("after_p99_ms", after_.fleet_value)
        .Field("after_samples", static_cast<uint64_t>(after_.total_samples));
    w.Key("history").BeginArray();
    for (const fleet::Rollout::Event& e : rollout_->history()) {
      w.BeginObject().Field("at_ms", sim::ToSeconds(e.at) * 1e3).Field("what", e.what).EndObject();
    }
    w.EndArray();
    return !rolled_back &&
           rollout_->enabled_nodes() >= static_cast<size_t>(rollout_->waves().front());
  }

 private:
  static constexpr int kDensity = 4;
  static constexpr double kNicSloMs = 100.0;  // 160 ms SLO minus 60 ms host side.

  sim::Duration sim_time_;
  std::unique_ptr<scenario::Fig3Source> source_;
  std::unique_ptr<fleet::SloMonitor> monitor_;
  std::unique_ptr<fleet::Rollout> rollout_;
  fleet::SloMonitor::Report before_;
  fleet::SloMonitor::Report after_;
};

// 256 lean baseline nodes on flow-aggregate load: no VM arrivals, no CP
// monitors, no padding timers, default calendar threshold. A fleet DP-latency
// watch (queue 0's p99 every 50 ms) is the only control work.
class Fleet256 : public Workload {
 public:
  explicit Fleet256(sim::Duration sim_time) : sim_time_(sim_time) {}

  void Setup(uint64_t seed, int threads) override {
    fleet::ClusterConfig ccfg;
    ccfg.num_nodes = 256;
    ccfg.seed = seed;
    ccfg.epoch = sim::Millis(5);
    ccfg.threads = threads;
    ccfg.node.mode = exp::Mode::kBaseline;
    // The lean node of bench/fleet_scale: small packet arena and sketches.
    ccfg.node.packet_pool_capacity = 4096;
    ccfg.node.flow_monitor.cms_width = 512;
    ccfg.node.flow_monitor.cms_depth = 2;
    ccfg.node.flow_monitor.topk_capacity = 16;
    cluster_ = std::make_unique<fleet::Cluster>(ccfg);
    fleet::LoadGenConfig load;
    load.seed = kLoadSeed;
    load.aggregate.enabled = true;
    load.aggregate.users_per_node = 1000;
    load.aggregate.pps_per_user = 40;
    load.aggregate.flows_per_user = 1;
    load.vm_arrivals = false;
    load.spawn_monitors = false;
    gen_ = std::make_unique<fleet::LoadGen>(cluster_.get(), load);
    gen_->Start();
  }

  void Step(Stepper& stepper) override {
    fleet::SloConfig slo;
    slo.metric = "src0.latency_us";
    slo.percentile = 99.0;
    slo.threshold = 1000.0;
    slo.heavy_hitters = 0;
    fleet::SloMonitor monitor(cluster_.get(), slo);
    while (cluster_->Now() < sim_time_) {
      stepper.RunFor(std::min<sim::Duration>(sim::Millis(50), sim_time_ - cluster_->Now()));
      const fleet::SloMonitor::Report r = stepper.Observe(monitor);
      windows_ += 1;
      window_samples_ += r.total_samples;
    }
  }

  void Stop() override { gen_->Stop(); }

  bool Verdict(obs::JsonWriter& w) override {
    uint64_t events_min = ~0ull;
    uint64_t events_max = 0;
    uint64_t calendar_nodes = 0;
    for (size_t i = 0; i < cluster_->size(); ++i) {
      const uint64_t e = cluster_->node(i).sim().events_executed();
      events_min = std::min(events_min, e);
      events_max = std::max(events_max, e);
      calendar_nodes += cluster_->node(i).sim().calendar_engages() > 0 ? 1 : 0;
    }
    w.Field("events_per_node_min", events_min)
        .Field("events_per_node_max", events_max)
        .Field("calendar_nodes", calendar_nodes)
        .Field("slo_windows", windows_)
        .Field("slo_window_samples", window_samples_);
    // The calendar front-end must stay dormant on real load (it engages only
    // under synthetic padding), and every node must have done work.
    return calendar_nodes == 0 && events_min > 0 && window_samples_ > 0;
  }

 private:
  sim::Duration sim_time_;
  std::unique_ptr<fleet::LoadGen> gen_;
  uint64_t windows_ = 0;
  uint64_t window_samples_ = 0;
};

// The autopilot-ddos scenario's fleet (scenario::BuildScenario): a 12-node
// hot/cool baseline fleet under fleet::Autopilot, with a 12-attacker spoofed
// flood at node 0 after a 200 ms warmup. The harness observes SLO windows the
// way the scenario runner does.
class AutopilotDdos : public Workload {
 public:
  explicit AutopilotDdos(sim::Duration sim_time) : sim_time_(sim_time) {}

  void Setup(uint64_t seed, int threads) override {
    scenario::ScenarioOptions opts;
    opts.nodes = 12;
    opts.seed = seed;
    opts.threads = threads;
    spec_ = scenario::BuildScenario("autopilot-ddos", opts);
    // The victim starts on Tai Chi: in the full scenario the autopilot has
    // enabled it long before the flood lands, and its donated DP cycles are
    // what the flood overruns. The other hot nodes are left to the autopilot.
    const auto tweak = spec_.cluster.tweak;
    spec_.cluster.tweak = [tweak](int node, exp::TestbedConfig& cfg) {
      tweak(node, cfg);
      if (node == 0) {
        cfg.mode = exp::Mode::kTaiChi;
      }
    };
    cluster_ = std::make_unique<fleet::Cluster>(spec_.cluster);

    // The scenario's hot/cool load. The flood lands at the end of the
    // shortened warmup, at the generator's default intensity (the scenario
    // uses 0.50): at 0.50, 300 ms of flood overflows no ring on some seeds.
    const int hot = spec_.cluster.num_nodes / 3;
    fleet::LoadGenConfig load = scenario::Fig3DensityMix(1).load;
    load.seed = kScenarioLoadSeed;
    load.node_vm_scale.assign(static_cast<size_t>(spec_.cluster.num_nodes), 1.0);
    for (int i = 0; i < hot; ++i) {
      load.node_vm_scale[static_cast<size_t>(i)] = 4.0;
    }
    scenario::DdosConfig acfg;
    acfg.load = load;
    acfg.targets = {0};
    acfg.attackers = 12;
    acfg.utilization = 0.70;
    acfg.size_bytes = 512;
    acfg.start_after = kWarmup;
    source_ = std::make_unique<scenario::DdosSource>(acfg);
    source_->Start(*cluster_);
  }

  void Step(Stepper& stepper) override {
    autopilot_ = std::make_unique<fleet::Autopilot>(cluster_.get(), source_.get(),
                                                    spec_.autopilot);
    stepper.AddControl([this] { autopilot_->Arm(); });
    fleet::SloMonitor monitor(cluster_.get(), spec_.slo);
    stepper.RunFor(kWarmup);
    stepper.Observe(monitor);
    while (cluster_->Now() < sim_time_) {
      stepper.RunFor(std::min<sim::Duration>(spec_.observe_every, sim_time_ - cluster_->Now()));
      const fleet::SloMonitor::Report r = stepper.Observe(monitor);
      windows_ += 1;
      breach_windows_ += r.fleet_breach ? 1 : 0;
      hotspot_windows_ += r.hotspots.empty() ? 0 : 1;
      worst_ = std::max(worst_, r.fleet_value);
    }
    autopilot_->Disarm();
  }

  void Stop() override { source_->Stop(*cluster_); }

  bool Verdict(obs::JsonWriter& w) override {
    const uint64_t victim_drops = cluster_->node(0).machine().accelerator().ring_drops();
    w.Field("windows", windows_)
        .Field("breach_windows", breach_windows_)
        .Field("hotspot_windows", hotspot_windows_)
        .Field("worst_fleet_p90_ms", worst_)
        .Field("victim_ring_drops", victim_drops)
        .Field("attack_packets", source_->attack_packets())
        .Field("enables", autopilot_->enables())
        .Field("migrations", autopilot_->migrations())
        .Field("enabled_vcpus", autopilot_->enabled_vcpus());
    w.Key("decisions").BeginArray();
    for (const fleet::Autopilot::Decision& d : autopilot_->decisions()) {
      w.BeginObject()
          .Field("at_ms", sim::ToSeconds(d.at) * 1e3)
          .Field("act", fleet::ToString(d.act))
          .Field("node", d.node)
          .Field("target", d.target)
          .Field("value", d.value)
          .EndObject();
    }
    w.EndArray();
    return victim_drops > 0 && !autopilot_->decisions().empty();
  }

  size_t Decisions() const override { return autopilot_->decisions().size(); }

 private:
  static constexpr sim::Duration kWarmup = sim::Millis(200);

  sim::Duration sim_time_;
  scenario::ScenarioSpec spec_;
  std::unique_ptr<scenario::DdosSource> source_;
  std::unique_ptr<fleet::Autopilot> autopilot_;
  uint64_t windows_ = 0;
  uint64_t breach_windows_ = 0;
  uint64_t hotspot_windows_ = 0;
  double worst_ = 0;
};

struct WorkloadInfo {
  const char* name;
  double sim_ms;        // Default simulated length.
  int default_threads;  // 0 = min(4, hardware cores).
};

const WorkloadInfo kWorkloads[] = {
    {"rollout12", 300, 1},
    {"fleet256", 300, 0},
    {"autopilot-ddos", 500, 1},
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, sim::Duration sim_time) {
  if (name == "rollout12") {
    return std::make_unique<Rollout12>(sim_time);
  }
  if (name == "fleet256") {
    return std::make_unique<Fleet256>(sim_time);
  }
  return std::make_unique<AutopilotDdos>(sim_time);
}

// --- Report ------------------------------------------------------------------

struct Report {
  std::string text;
  bool pass = false;
  double startup_p99_ms = 0;  // Simulated; 0 when the workload has no VM startups.
  double dp_p99_us = 0;       // Simulated.
  // Host time of two report parts; the report text holds no host numbers.
  double percentile_s = 0;
  double flow_merge_s = 0;
};

// Writes {count, p50, p99} and returns the p99 (0 for an empty summary).
double WriteSummary(obs::JsonWriter& w, const std::string& key, const sim::Summary& s,
                    Spans& spans, double& percentile_s) {
  w.Key(key).BeginObject().Field("count", static_cast<uint64_t>(s.count()));
  double p99 = 0;
  if (!s.empty()) {
    Scope scope(spans, "percentiles");
    const Clock::time_point t0 = Clock::now();
    const double p50 = s.Percentile(50);
    p99 = s.Percentile(99);
    percentile_s += SecondsSince(t0);
    w.Field("p50", p50).Field("p99", p99);
  }
  w.EndObject();
  return p99;
}

// The deterministic report: simulated quantities only, a pure function of
// (workload, seed, simulated length) at any thread count.
Report BuildReport(Workload& wl, const std::string& name, uint64_t seed, Spans& spans) {
  fleet::Cluster& cluster = wl.cluster();
  Report out;
  obs::JsonWriter w;
  w.BeginObject()
      .Field("workload", name)
      .Field("seed", seed)
      .Field("nodes", static_cast<uint64_t>(cluster.size()))
      .Field("sim_ms", sim::ToSeconds(cluster.Now()) * 1e3);
  w.Key("per_node").BeginArray();
  for (size_t i = 0; i < cluster.size(); ++i) {
    exp::Testbed& bed = cluster.node(i);
    const hw::Accelerator& accel = bed.machine().accelerator();
    w.BeginObject()
        .Field("events", bed.sim().events_executed())
        .Field("ingressed", accel.packets_ingressed())
        .Field("ring_drops", accel.ring_drops())
        .Field("pool_drops", accel.pool_drops())
        .Field("tap_rx", bed.flow_rx().total_packets())
        .Field("tap_dp", bed.flow_dp().total_packets())
        .Field("tap_tx", bed.flow_tx().total_packets())
        .EndObject();
  }
  w.EndArray();

  sim::Summary startup;
  sim::Summary dp_latency;
  {
    Scope scope(spans, "merge_summaries");
    startup = cluster.MergeSummaryMetric("cp.vm_startup.latency_ms");
    std::vector<const sim::Summary*> parts;
    for (size_t i = 0; i < cluster.size(); ++i) {
      const obs::MetricsRegistry& reg = cluster.observability(i).metrics;
      for (int src = 0;; ++src) {
        const sim::Summary* s = reg.FindSummary("src" + std::to_string(src) + ".latency_us");
        if (s == nullptr) {
          break;
        }
        parts.push_back(s);
      }
    }
    dp_latency = obs::MergeSummaries(parts);
  }
  out.startup_p99_ms = WriteSummary(w, "startup_ms", startup, spans, out.percentile_s);
  out.dp_p99_us = WriteSummary(w, "dp_latency_us", dp_latency, spans, out.percentile_s);

  obs::FlowMonitor flows(cluster.config().node.flow_monitor);
  {
    Scope scope(spans, "flow_merge");
    const Clock::time_point t0 = Clock::now();
    flows = cluster.MergedFlowMonitor(fleet::Cluster::FlowTap::kDp);
    out.flow_merge_s = SecondsSince(t0);
  }
  w.Key("dp_flows").BeginObject()
      .Field("packets", flows.total_packets())
      .Field("bytes", flows.total_bytes())
      .Field("distinct", flows.DistinctFlows());
  w.Key("top").BeginArray();
  for (const auto& e : flows.TopK(4)) {
    w.BeginObject().Field("flow", e.key.ToString()).Field("packets", e.packets).EndObject();
  }
  w.EndArray().EndObject();

  w.Key("verdict").BeginObject();
  out.pass = wl.Verdict(w);
  w.Field("pass", out.pass).EndObject().EndObject();
  out.text = w.str() + "\n";
  return out;
}

// --- Per-layer counters and isolated replays ---------------------------------

struct LayerCounts {
  uint64_t events = 0;
  uint64_t ingressed = 0;
  uint64_t ring_drops = 0;
  uint64_t pool_drops = 0;
  uint64_t tap_updates = 0;
  uint64_t heavy_evictions = 0;
  uint64_t summary_samples = 0;
  uint64_t dp_packets = 0;
  uint64_t dp_yields = 0;
  uint64_t context_switches = 0;
  uint64_t vcpu_switches = 0;
  uint64_t probe_preemptions = 0;
  uint64_t ipis_routed = 0;
  uint64_t vm_startups = 0;
};

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Reads every node's MetricsRegistry snapshot and the layers' accessors.
LayerCounts CountLayers(fleet::Cluster& cluster) {
  LayerCounts c;
  for (size_t i = 0; i < cluster.size(); ++i) {
    exp::Testbed& bed = cluster.node(i);
    const hw::Accelerator& accel = bed.machine().accelerator();
    c.events += bed.sim().events_executed();
    c.ingressed += accel.packets_ingressed();
    c.ring_drops += accel.ring_drops();
    c.pool_drops += accel.pool_drops();
    for (const obs::FlowMonitor* m : {&bed.flow_rx(), &bed.flow_dp(), &bed.flow_tx()}) {
      c.tap_updates += m->total_packets();
      c.heavy_evictions += m->topk().evictions();
    }
    const obs::MetricsSnapshot snap = cluster.observability(i).metrics.Snapshot(cluster.Now());
    for (const obs::MetricSample& s : snap.samples) {
      if (s.kind == obs::MetricSample::Kind::kSummary) {
        c.summary_samples += s.count;
        if (s.name == "cp.vm_startup.latency_ms") {
          c.vm_startups += s.count;
        }
        continue;
      }
      if (s.kind != obs::MetricSample::Kind::kCounter) {
        continue;
      }
      if (StartsWith(s.name, "dp.svc") && EndsWith(s.name, ".packets")) {
        c.dp_packets += s.count;
      } else if (StartsWith(s.name, "dp.svc") && EndsWith(s.name, ".yields")) {
        c.dp_yields += s.count;
      } else if (EndsWith(s.name, ".context_switches")) {
        c.context_switches += s.count;
      } else if (s.name == "sched.switches") {
        c.vcpu_switches += s.count;
      } else if (s.name == "sched.probe_preemptions") {
        c.probe_preemptions += s.count;
      } else if (s.name == "ipi.routed") {
        c.ipis_routed += s.count;
      }
    }
  }
  return c;
}

// EventQueue Schedule + PopNext at a steady depth of `depth` pending events,
// delays uniform over 1 ms: host ns per event (one schedule plus one pop).
double ReplayEventQueue(size_t depth) {
  depth = std::max<size_t>(depth, 1);
  sim::EventQueue q;
  sim::Rng rng(7);
  uint64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  for (size_t i = 0; i < depth; ++i) {
    q.Schedule(static_cast<sim::SimTime>(rng.UniformInt(1, 1000000)), cb);
  }
  constexpr int kOps = 2000000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    sim::EventQueue::Fired f = q.PopNext();
    f.fn();
    q.Schedule(f.when + static_cast<sim::SimTime>(rng.UniformInt(1, 1000000)), cb);
  }
  const double s = SecondsSince(t0);
  return fired == static_cast<uint64_t>(kOps) ? s * 1e9 / kOps : 0;
}

// An empty ThreadPool::ParallelFor over `n` indices: host us per barrier.
double ReplayPoolBarrier(int threads, size_t n) {
  sim::ThreadPool pool(threads);
  constexpr int kCalls = 4000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    pool.ParallelFor(n, [](size_t) {});
  }
  return SecondsSince(t0) * 1e6 / kCalls;
}

// Summary::Add of latency-like samples into a fresh summary: host ns per add.
double ReplaySummaryAdd() {
  constexpr int kAdds = 4000000;
  sim::Rng rng(11);
  std::vector<double> values(4096);
  for (double& v : values) {
    v = rng.Uniform(1.0, 500.0);
  }
  sim::Summary s;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kAdds; ++i) {
    s.Add(values[static_cast<size_t>(i) & 4095]);
  }
  const double secs = SecondsSince(t0);
  return s.count() == static_cast<size_t>(kAdds) ? secs * 1e9 / kAdds : 0;
}

// FlowMonitor::OnPacket over the flow keys node 0 actually ingressed, on the
// workload's own sketch config: host ns per tap update.
struct TapSample {
  obs::FlowKey key;
  uint32_t bytes = 0;
};

double ReplayTap(const obs::FlowMonitorConfig& config, const std::vector<TapSample>& keys) {
  if (keys.empty()) {
    return 0;
  }
  obs::FlowMonitor monitor(config);
  constexpr size_t kUpdates = 2000000;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < kUpdates; ++i) {
    const TapSample& k = keys[i % keys.size()];
    monitor.OnPacket(k.key, k.bytes);
  }
  const double secs = SecondsSince(t0);
  return monitor.total_packets() == kUpdates ? secs * 1e9 / kUpdates : 0;
}

// The highest percentile of `v` with at least ten samples beyond it.
std::pair<double, double> TailPercentile(const std::vector<double>& v) {
  sim::Summary s;
  for (double x : v) {
    s.Add(x);
  }
  for (int tenths : {999, 990, 950, 900, 750, 500}) {
    if (v.size() * static_cast<size_t>(1000 - tenths) >= 10 * 1000) {
      return {tenths / 10.0, s.Percentile(tenths / 10.0)};
    }
  }
  return {0.0, s.empty() ? 0.0 : s.Percentile(0)};
}

uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload <rollout12|fleet256|autopilot-ddos> "
               "--seed N --report PATH [--trace SPANS_PATH] [--threads T] [--sim-ms MS]\n",
               why);
  std::exit(2);
}

long ParseInt(const char* flag, const char* v, long lo, long hi) {
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || x < lo || x > hi) {
    std::fprintf(stderr, "ledger: %s must be an integer in [%ld, %ld] (got '%s')\n", flag, lo,
                 hi, v);
    std::exit(2);
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "ledger: refusing to time an unoptimised build (%s)\n", LEDGER_BUILD_TYPE);
  return 3;
#endif
  std::string workload;
  std::string report_path;
  std::string spans_path;
  uint64_t seed = 0;
  bool have_seed = false;
  int threads = -1;
  long sim_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(ParseInt("--seed", v, 0, 1L << 62));
      have_seed = true;
    } else if (arg == "--report") {
      report_path = v;
    } else if (arg == "--trace") {
      spans_path = v;
    } else if (arg == "--threads") {
      threads = static_cast<int>(ParseInt("--threads", v, 1, 256));
    } else if (arg == "--sim-ms") {
      sim_ms = ParseInt("--sim-ms", v, 5, 60000);
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (workload == w.name) {
      info = &w;
    }
  }
  if (info == nullptr || !have_seed || report_path.empty()) {
    Usage("--workload (one of the three), --seed and --report are required");
  }
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (threads < 0) {
    threads = info->default_threads > 0 ? info->default_threads : std::min(4, cores);
  }
  const sim::Duration sim_time =
      sim::Millis(sim_ms > 0 ? static_cast<int64_t>(sim_ms) : static_cast<int64_t>(info->sim_ms));

  Spans spans(!spans_path.empty());
  const int root = spans.Open("workload");

  // One set-up per process, so it is as cold as a user's first one; run.py
  // takes the median over its jobs.
  std::unique_ptr<Workload> wl = MakeWorkload(workload, sim_time);
  double setup_s = 0;
  {
    Scope scope(spans, "setup");
    const Clock::time_point t0 = Clock::now();
    wl->Setup(seed, threads);
    setup_s = SecondsSince(t0);
  }
  fleet::Cluster& cluster = wl->cluster();

  // Traced runs capture node 0's ingress flow keys for the tap replay.
  std::vector<TapSample> tap_keys;
  if (spans.on()) {
    tap_keys.reserve(1 << 16);
    cluster.node(0).SetIngressTap([&tap_keys](uint32_t, const hw::IoPacket& pkt) {
      if (tap_keys.size() < tap_keys.capacity()) {
        tap_keys.push_back({pkt.flow_key, pkt.size_bytes});
      }
    });
  }

  double wall_s = 0;
  std::vector<double> epoch_s;
  double control_s = 0;
  double slo_observe_s = 0;
  size_t pending_peak = 0;
  size_t slots_peak = 0;
  {
    Stepper stepper(cluster, spans);
    Scope scope(spans, "step");
    const Clock::time_point t0 = Clock::now();
    wl->Step(stepper);
    wall_s = SecondsSince(t0);

    epoch_s = stepper.epoch_s();
    control_s = stepper.control_s();
    slo_observe_s = stepper.slo_observe_s();
    pending_peak = stepper.pending_peak();
    slots_peak = stepper.slots_peak();
  }
  if (spans.on()) {
    cluster.node(0).SetIngressTap(nullptr);
  }

  Report report;
  double report_s = 0;
  {
    Scope scope(spans, "report");
    const Clock::time_point t0 = Clock::now();
    wl->Stop();
    report = BuildReport(*wl, workload, seed, spans);
    {
      Scope write(spans, "write");
      std::ofstream out(report_path, std::ios::binary);
      out << report.text;
      if (!out) {
        std::fprintf(stderr, "ledger: cannot write '%s'\n", report_path.c_str());
        return 1;
      }
    }
    report_s = SecondsSince(t0);
  }

  LayerCounts counts;
  const size_t nodes = cluster.size();
  const obs::FlowMonitorConfig flow_config = cluster.config().node.flow_monitor;
  const size_t decisions = wl->Decisions();
  if (spans.on()) {
    Scope scope(spans, "count_layers");
    counts = CountLayers(cluster);
  }
  double teardown_s = 0;
  {
    Scope scope(spans, "teardown");
    const Clock::time_point t0 = Clock::now();
    wl.reset();
    teardown_s = SecondsSince(t0);
  }
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;

  obs::JsonWriter w;
  w.BeginObject()
      .Field("workload", workload)
      .Field("seed", seed)
      .Field("threads", threads)
      .Field("cores", cores)
      .Field("compiler", LEDGER_COMPILER)
      .Field("build_type", LEDGER_BUILD_TYPE)
      .Field("pass", report.pass)
      .Field("wall_s", wall_s)
      .Field("setup_s", setup_s)
      .Field("report_s", report_s)
      .Field("teardown_s", teardown_s)
      .Field("peak_rss_mb", peak_rss_mb)
      .Field("startup_p99_ms", report.startup_p99_ms)
      .Field("dp_p99_us", report.dp_p99_us);
  if (spans.on()) {
    const double events = static_cast<double>(std::max<uint64_t>(counts.events, 1));
    const double packets = static_cast<double>(std::max<uint64_t>(counts.ingressed, 1));
    double queue_ns = 0;
    double barrier_us = 0;
    double add_ns = 0;
    double tap_ns = 0;
    {
      Scope scope(spans, "replay.event_queue");
      queue_ns = ReplayEventQueue(pending_peak);
    }
    {
      Scope scope(spans, "replay.pool_barrier");
      barrier_us = ReplayPoolBarrier(threads, nodes);
    }
    {
      Scope scope(spans, "replay.summary_add");
      add_ns = ReplaySummaryAdd();
    }
    {
      Scope scope(spans, "replay.tap");
      tap_ns = ReplayTap(flow_config, tap_keys);
    }
    const auto [tail_p, tail_s] = TailPercentile(epoch_s);
    w.Key("layers").BeginObject()
        .Field("sim.events", counts.events)
        .Field("sim.ns_per_event", wall_s * 1e9 / events)
        .Field("sim.pending_peak", static_cast<uint64_t>(pending_peak))
        .Field("sim.event_slots_peak", static_cast<uint64_t>(slots_peak))
        .Field("sim.queue_ns_per_op", queue_ns)
        .Field("sim.pool_barrier_us", barrier_us)
        .Field("sim.summary_samples", counts.summary_samples)
        .Field("sim.summary_add_ns", add_ns)
        .Field("sim.percentile_ms", report.percentile_s * 1e3)
        .Field("hw.packets_ingressed", counts.ingressed)
        .Field("hw.ns_per_packet", wall_s * 1e9 / packets)
        .Field("hw.ring_drops", counts.ring_drops)
        .Field("hw.pool_drops", counts.pool_drops)
        .Field("dp.packets", counts.dp_packets)
        .Field("dp.yields", counts.dp_yields)
        .Field("os.context_switches", counts.context_switches)
        .Field("taichi.vcpu_switches", counts.vcpu_switches)
        .Field("taichi.probe_preemptions", counts.probe_preemptions)
        .Field("taichi.ipis_routed", counts.ipis_routed)
        .Field("cp.vm_startups", counts.vm_startups)
        .Field("obs.tap_updates", counts.tap_updates)
        .Field("obs.tap_ns_per_update", tap_ns)
        .Field("obs.tap_share", static_cast<double>(counts.tap_updates) * tap_ns * 1e-9 /
                                    (wall_s * threads))
        .Field("obs.heavy_evictions", counts.heavy_evictions)
        .Field("obs.flow_merge_ms", report.flow_merge_s * 1e3)
        .Field("fleet.epochs", static_cast<uint64_t>(epoch_s.size()))
        .Field("fleet.epoch_ms.p50", Median(epoch_s) * 1e3)
        .Field("fleet.epoch_ms.tail", tail_s * 1e3)
        .Field("fleet.epoch_tail_pct", tail_p)
        .Field("fleet.control_ms", control_s * 1e3)
        .Field("fleet.slo_observe_ms", slo_observe_s * 1e3)
        .Field("fleet.autopilot_decisions", static_cast<uint64_t>(decisions))
        .Field("exp.node_build_ms", setup_s * 1e3 / static_cast<double>(nodes))
        .EndObject();
    spans.Close(root);
    if (!spans.Write(spans_path)) {
      std::fprintf(stderr, "ledger: cannot write '%s'\n", spans_path.c_str());
      return 1;
    }
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
