// The SmartNIC system-on-chip: general-purpose CPUs, the interrupt fabric,
// the programmable I/O accelerator with its workload probe, and the physical
// network port. Mirrors the Table 4 SmartNIC (12 CPUs, 200 Gb/s).
#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/accelerator.h"
#include "src/hw/apic.h"
#include "src/hw/hw_probe.h"
#include "src/hw/nic_port.h"
#include "src/sim/packet_pool.h"
#include "src/sim/simulation.h"

namespace taichi::hw {

struct MachineConfig {
  uint32_t num_cpus = 12;  // Table 4: "CPU: 12 CPU".
  sim::Duration ipi_delivery_latency = sim::Nanos(400);
  AcceleratorConfig accelerator;
  NicPortConfig nic;
  // Upper bound on the node's packet-arena slots (88 B each, built on first
  // use, so unused headroom costs no memory). Sized so sustained overload
  // fills the descriptor rings first: ring drops, not pool exhaustion, are
  // the designed shedding point.
  size_t packet_pool_capacity = 65536;
};

class Machine {
 public:
  Machine(sim::Simulation* sim, MachineConfig config);

  sim::Simulation* sim() { return sim_; }
  const MachineConfig& config() const { return config_; }
  uint32_t num_cpus() const { return config_.num_cpus; }

  // Physical CPU i has LAPIC id i.
  ApicId cpu_apic_id(uint32_t cpu) const { return cpu; }

  Apic& apic() { return *apic_; }
  Accelerator& accelerator() { return *accelerator_; }
  NicPort& nic() { return *nic_; }

  // The node's packet arena: every in-flight packet on this machine lives in
  // one of its slots, addressed by sim::PacketHandle.
  sim::PacketPool& pool() { return *pool_; }
  const sim::PacketPool& pool() const { return *pool_; }

  // The hardware workload probe is instantiated with the machine (it is part
  // of the accelerator silicon) but only consulted once installed into the
  // accelerator via Accelerator::set_probe().
  HwWorkloadProbe& probe() { return *probe_; }

 private:
  sim::Simulation* sim_;
  MachineConfig config_;
  std::unique_ptr<sim::PacketPool> pool_;
  std::unique_ptr<Apic> apic_;
  std::unique_ptr<Accelerator> accelerator_;
  std::unique_ptr<HwWorkloadProbe> probe_;
  std::unique_ptr<NicPort> nic_;
};

}  // namespace taichi::hw

#endif  // SRC_HW_MACHINE_H_
