//! The CPU-side ports of the shared step semantics.
//!
//! The per-instruction handler bodies, and their one dispatcher
//! [`cheri_sem::ops::step_instr`], live in `cheri-sem` — this module only
//! supplies what the pure semantics cannot know about: [`CpuPorts`]
//! implements the [`MemoryPort`]/[`TrapPort`] surface on top of the core's
//! TLB, cache model and derivation trace, and [`RefPorts`] the reference
//! interpreter's direct VM walks.

use crate::cpu::{Cpu, TrapCause, TrapInfo};
use cheri_cap::{CapFault, Capability};
use cheri_mem::AccessKind;
use cheri_sem::{MemoryPort, TrapPort};
use cheri_vm::{Access, AsId, Vm};

/// The fast machine's implementation of the semantics port traits:
/// translations go through the TLB, cache events straight into the cache
/// model, derivations into the Figure 5 trace.
pub(crate) struct CpuPorts<'c, 'v> {
    /// The core (TLB, caches, counters, trace).
    pub cpu: &'c mut Cpu,
    /// Virtual memory of the executing address space.
    pub vm: &'v mut Vm,
    /// The executing address space.
    pub id: AsId,
}

impl TrapPort for CpuPorts<'_, '_> {
    type Fault = TrapInfo;

    fn cap_fault(&mut self, pc: u64, fault: CapFault, vaddr: Option<u64>) -> TrapInfo {
        TrapInfo {
            cause: TrapCause::Cap(fault),
            pc,
            vaddr,
        }
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.cpu.stats.cycles += cycles;
    }

    fn count_syscall(&mut self) {
        self.cpu.stats.syscalls += 1;
    }

    fn record_derivation(&mut self, cap: &Capability) {
        self.cpu.trace.record(cap);
    }

    fn weaken_sem(&self) -> bool {
        self.cpu.weaken_sem()
    }
}

impl MemoryPort for CpuPorts<'_, '_> {
    fn read_raw(&mut self, vaddr: u64, size: u64, pc: u64) -> Result<u64, TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        let mut buf = [0u8; 8];
        self.vm
            .read_bytes(self.id, vaddr, &mut buf[..size as usize])
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_raw(&mut self, vaddr: u64, size: u64, value: u64, pc: u64) -> Result<(), TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        let bytes = value.to_le_bytes();
        self.vm
            .write_bytes(self.id, vaddr, &bytes[..size as usize])
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }

    fn read_granule(&mut self, vaddr: u64, pc: u64) -> Result<Option<Capability>, TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Read, pc)?;
        self.cpu.mem_access(pa, AccessKind::Load);
        self.vm.load_cap(self.id, vaddr).map_err(|e| TrapInfo {
            cause: TrapCause::Vm(e),
            pc,
            vaddr: Some(vaddr),
        })
    }

    fn write_granule(&mut self, vaddr: u64, value: Capability, pc: u64) -> Result<(), TrapInfo> {
        let pa = self
            .cpu
            .translate_cached(self.vm, self.id, vaddr, Access::Write, pc)?;
        self.cpu.mem_access(pa, AccessKind::Store);
        self.vm
            .store_cap(self.id, vaddr, value)
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }
}

/// The reference interpreter's implementation of the semantics port
/// traits: every translation takes the full VM walk, every cache event is
/// replayed into the model immediately, and nothing is ever weakened. The
/// deliberately simple second consumer of `cheri-sem` — what the fast
/// machine is diffed against under `--oracle`.
pub(crate) struct RefPorts<'c, 'v> {
    /// The core (caches, counters, trace).
    pub cpu: &'c mut Cpu,
    /// Virtual memory of the executing address space.
    pub vm: &'v mut Vm,
    /// The executing address space.
    pub id: AsId,
}

impl RefPorts<'_, '_> {
    fn translate(&mut self, vaddr: u64, access: Access, pc: u64) -> Result<u64, TrapInfo> {
        self.vm
            .translate(self.id, vaddr, access)
            .map(|pa| pa.0)
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }

    fn access(&mut self, pa: u64, kind: AccessKind) {
        self.cpu.stats.cycles += self.cpu.caches.access(pa, kind);
    }
}

impl TrapPort for RefPorts<'_, '_> {
    type Fault = TrapInfo;

    fn cap_fault(&mut self, pc: u64, fault: CapFault, vaddr: Option<u64>) -> TrapInfo {
        TrapInfo {
            cause: TrapCause::Cap(fault),
            pc,
            vaddr,
        }
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.cpu.stats.cycles += cycles;
    }

    fn count_syscall(&mut self) {
        self.cpu.stats.syscalls += 1;
    }

    fn record_derivation(&mut self, cap: &Capability) {
        self.cpu.trace.record(cap);
    }
}

impl MemoryPort for RefPorts<'_, '_> {
    fn read_raw(&mut self, vaddr: u64, size: u64, pc: u64) -> Result<u64, TrapInfo> {
        let pa = self.translate(vaddr, Access::Read, pc)?;
        self.access(pa, AccessKind::Load);
        let mut buf = [0u8; 8];
        self.vm
            .read_bytes(self.id, vaddr, &mut buf[..size as usize])
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_raw(&mut self, vaddr: u64, size: u64, value: u64, pc: u64) -> Result<(), TrapInfo> {
        let pa = self.translate(vaddr, Access::Write, pc)?;
        self.access(pa, AccessKind::Store);
        let bytes = value.to_le_bytes();
        self.vm
            .write_bytes(self.id, vaddr, &bytes[..size as usize])
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }

    fn read_granule(&mut self, vaddr: u64, pc: u64) -> Result<Option<Capability>, TrapInfo> {
        let pa = self.translate(vaddr, Access::Read, pc)?;
        self.access(pa, AccessKind::Load);
        self.vm.load_cap(self.id, vaddr).map_err(|e| TrapInfo {
            cause: TrapCause::Vm(e),
            pc,
            vaddr: Some(vaddr),
        })
    }

    fn write_granule(&mut self, vaddr: u64, value: Capability, pc: u64) -> Result<(), TrapInfo> {
        let pa = self.translate(vaddr, Access::Write, pc)?;
        self.access(pa, AccessKind::Store);
        self.vm
            .store_cap(self.id, vaddr, value)
            .map_err(|e| TrapInfo {
                cause: TrapCause::Vm(e),
                pc,
                vaddr: Some(vaddr),
            })
    }
}
