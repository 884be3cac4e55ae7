// VM startup storm: the paper's headline control-plane scenario (§6.6).
//
// A high-density node receives a burst of VM-creation requests. Device
// management CP tasks provision virtio devices under driver locks while the
// data plane keeps serving traffic. Compare how the static partition and
// Tai Chi absorb the storm.
//
//   $ ./examples/vm_startup_storm [num_vms] [density]
//
// Both counts must be whole positive numbers: "4x" is a usage error (exit 2).
#include <cstdio>

#include "bench/common.h"

using namespace taichi;

int main(int argc, char** argv) {
  const int num_vms = argc > 1 ? bench::ParseFlag<int>("num_vms", argv[1], 1) : 40;
  const int density = argc > 2 ? bench::ParseFlag<int>("density", argv[2], 1) : 4;
  std::printf("VM startup storm: %d VMs at %dx instance density\n\n", num_vms, density);

  sim::Table t({"Mode", "avg (ms)", "p99 (ms)", "max (ms)", "vCPU switches"});
  for (exp::Mode mode : {exp::Mode::kBaseline, exp::Mode::kTaiChi}) {
    exp::TestbedConfig cfg;
    cfg.mode = mode;
    cfg.seed = 21;
    cfg.vm_startup.devices_per_vm = 6 * density;
    cfg.monitors.count = 6 * density;
    exp::Testbed bed(cfg);
    exp::VmStartupResult r = exp::RunVmStartupStorm(&bed, num_vms,
                                                    /*arrival_rate_per_sec=*/50.0 * density,
                                                    /*dp_utilization=*/0.25);
    t.AddRow({exp::ToString(mode), sim::Table::Num(r.startup_ms.mean(), 1),
              sim::Table::Num(r.startup_ms.Percentile(99), 1),
              sim::Table::Num(r.startup_ms.max(), 1),
              std::to_string(bed.taichi() ? bed.taichi()->scheduler().switches() : 0)});
  }
  t.Print();
  std::printf(
      "\nTai Chi turns idle data-plane cycles into device-provisioning capacity:\n"
      "the same storm completes several times faster at high density (§6.6).\n");
  return 0;
}
