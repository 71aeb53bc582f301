//! Instruction-level coverage for the capability inspection/manipulation
//! instructions not exercised by the main interpreter tests. Each program
//! runs on both consumers of the shared dispatcher — the fast machine and
//! the reference interpreter — which must agree exactly.

use cheri_cap::{CapFault, CapFormat, CapSource, Capability, Perms, PrincipalId};
use cheri_cpu::{Cpu, Exit, RegFile, TrapCause};
use cheri_isa::{creg, ireg, Instr, Width};
use cheri_vm::{AsId, Backing, Prot, Vm};
use std::sync::Arc;

fn machine(code: Vec<Instr>) -> (Cpu, Vm, AsId, RegFile) {
    let mut vm = Vm::new(64);
    let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
    let bytes: Vec<u8> = (0..code.len() as u32).flat_map(u32::to_le_bytes).collect();
    vm.map(
        id,
        Some(0x10000),
        (code.len() as u64 * 4).max(4096),
        Prot::rx(),
        Backing::Image {
            data: Arc::new(bytes),
            offset: 0,
        },
        "text",
    )
    .unwrap();
    vm.map(id, Some(0x20000), 4096, Prot::rw(), Backing::Zero, "data")
        .unwrap();
    let mut cpu = Cpu::new();
    cpu.register_code(id, 0x10000, Arc::new(code));
    let mut rf = RegFile::new(CapFormat::C128);
    let root = vm.space(id).root;
    rf.pcc = root
        .with_addr(0x10000)
        .set_bounds(0x1000, false)
        .unwrap()
        .and_perms(Perms::user_code());
    rf.pc = 0x10000;
    rf.ddc = Capability::null(CapFormat::C128);
    rf.wc(
        creg::ptr(0),
        root.with_addr(0x20000).set_bounds(256, true).unwrap(),
    );
    (cpu, vm, id, rf)
}

/// Runs `code` on the fast machine, then on the reference interpreter
/// (`set_fast_path(false)`), and asserts both end with the same exit,
/// register file, retirement counters and cache statistics.
fn run(code: Vec<Instr>) -> (Exit, RegFile) {
    let on_tier = |fast: bool| {
        let (mut cpu, mut vm, id, mut rf) = machine(code.clone());
        cpu.set_fast_path(fast);
        let exit = cpu.run(&mut vm, id, &mut rf, 1000);
        (exit, rf, cpu.stats, cpu.caches.stats())
    };
    let fast = on_tier(true);
    let reference = on_tier(false);
    assert_eq!(
        fast, reference,
        "fast machine and reference interpreter disagree"
    );
    (fast.0, fast.1)
}

#[test]
fn cgetters_report_fields() {
    let (exit, rf) = run(vec![
        Instr::CGetAddr {
            rd: ireg::T0,
            cb: creg::ptr(0),
        },
        Instr::CGetBase {
            rd: ireg::T1,
            cb: creg::ptr(0),
        },
        Instr::CGetLen {
            rd: ireg::T2,
            cb: creg::ptr(0),
        },
        Instr::CGetTag {
            rd: ireg::T3,
            cb: creg::ptr(0),
        },
        Instr::CGetOffset {
            rd: ireg::temp(4),
            cb: creg::ptr(0),
        },
        Instr::CGetType {
            rd: ireg::temp(5),
            cb: creg::ptr(0),
        },
        Instr::CGetPerm {
            rd: ireg::temp(6),
            cb: creg::ptr(0),
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T0), 0x20000);
    assert_eq!(rf.r(ireg::T1), 0x20000);
    assert_eq!(rf.r(ireg::T2), 256);
    assert_eq!(rf.r(ireg::T3), 1);
    assert_eq!(rf.r(ireg::temp(4)), 0);
    assert_eq!(rf.r(ireg::temp(5)), u64::MAX, "unsealed reports -1");
    assert!(Perms::from_bits_truncate(rf.r(ireg::temp(6)) as u32).contains(Perms::LOAD));
}

#[test]
fn csub_and_ctestsubset() {
    let (exit, rf) = run(vec![
        Instr::CIncOffsetImm {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            imm: 48,
        },
        Instr::CSub {
            rd: ireg::T0,
            cb: creg::ptr(1),
            ct: creg::ptr(0),
        },
        // narrow child is a subset of parent
        Instr::Li {
            rd: ireg::T1,
            imm: 16,
        },
        Instr::CSetBounds {
            cd: creg::ptr(2),
            cb: creg::ptr(1),
            rs: ireg::T1,
        },
        Instr::CTestSubset {
            rd: ireg::T2,
            cb: creg::ptr(0),
            ct: creg::ptr(2),
        },
        Instr::CTestSubset {
            rd: ireg::T3,
            cb: creg::ptr(2),
            ct: creg::ptr(0),
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T0), 48, "pointer difference");
    assert_eq!(rf.r(ireg::T2), 1, "child within parent");
    assert_eq!(rf.r(ireg::T3), 0, "parent not within child");
}

#[test]
fn cfromptr_ctoptr_roundtrip_and_null() {
    let (exit, rf) = run(vec![
        Instr::CGetAddr {
            rd: ireg::T0,
            cb: creg::ptr(0),
        },
        Instr::AddI {
            rd: ireg::T0,
            rs: ireg::T0,
            imm: 64,
        },
        Instr::CFromPtr {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            rs: ireg::T0,
        },
        Instr::CGetTag {
            rd: ireg::T1,
            cb: creg::ptr(1),
        },
        Instr::CToPtr {
            rd: ireg::T2,
            cb: creg::ptr(1),
            ct: creg::ptr(0),
        },
        // rs == 0 yields NULL
        Instr::CFromPtr {
            cd: creg::ptr(2),
            cb: creg::ptr(0),
            rs: ireg::ZERO,
        },
        Instr::CGetTag {
            rd: ireg::T3,
            cb: creg::ptr(2),
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T1), 1, "provenance from ptr(0)");
    assert_eq!(rf.r(ireg::T2), 0x20000 + 64);
    assert_eq!(rf.r(ireg::T3), 0, "NULL from integer zero");
}

#[test]
fn crrl_cram_instructions() {
    let (exit, rf) = run(vec![
        Instr::Li {
            rd: ireg::T0,
            imm: (1 << 20) + 1,
        },
        Instr::CRrl {
            rd: ireg::T1,
            rs: ireg::T0,
        },
        Instr::CRam {
            rd: ireg::T2,
            rs: ireg::T0,
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    let len = rf.r(ireg::T1);
    let mask = rf.r(ireg::T2);
    assert!(len > (1 << 20));
    assert_eq!(
        len,
        cheri_cap::compress::representable_length((1 << 20) + 1)
    );
    assert_eq!(
        mask,
        cheri_cap::compress::representable_alignment_mask((1 << 20) + 1)
    );
}

#[test]
fn seal_unseal_instructions() {
    let (exit, rf) = run(vec![
        // sealer = ptr(0) with addr 42 and SEAL|UNSEAL perms (root had ALL
        // minus kernel bits; ptr(0) was narrowed to user_data... give it
        // the needed perms via CAndPerm on a fresh root-ish: use ptr(0)).
        Instr::Li {
            rd: ireg::T0,
            imm: 0x20000 + 42,
        },
        Instr::CSetAddr {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            rs: ireg::T0,
        },
        Instr::CSeal {
            cd: creg::ptr(2),
            cs: creg::ptr(0),
            ct: creg::ptr(1),
        },
        Instr::CGetType {
            rd: ireg::T1,
            cb: creg::ptr(2),
        },
        Instr::CUnseal {
            cd: creg::ptr(3),
            cs: creg::ptr(2),
            ct: creg::ptr(1),
        },
        Instr::CGetType {
            rd: ireg::T2,
            cb: creg::ptr(3),
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T1), 0x20000 + 42, "sealed with the otype");
    assert_eq!(rf.r(ireg::T2), u64::MAX, "unsealed again");
}

#[test]
fn sealed_cap_loads_trap() {
    let (exit, _) = run(vec![
        Instr::Li {
            rd: ireg::T0,
            imm: 0x20000 + 42,
        },
        Instr::CSetAddr {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            rs: ireg::T0,
        },
        Instr::CSeal {
            cd: creg::ptr(2),
            cs: creg::ptr(0),
            ct: creg::ptr(1),
        },
        Instr::CLoad {
            rd: ireg::T1,
            cb: creg::ptr(2),
            off: 0,
            w: Width::D,
            signed: false,
        },
    ]);
    match exit {
        Exit::Trap(t) => assert_eq!(t.cause, TrapCause::Cap(CapFault::SealViolation)),
        e => panic!("expected seal trap: {e:?}"),
    }
}

#[test]
fn loading_cap_without_loadcap_perm_strips_tag() {
    let (exit, rf) = run(vec![
        // store ptr(0) at 0x20000 (it points there)
        Instr::Csc {
            cs: creg::ptr(0),
            cb: creg::ptr(0),
            off: 0,
        },
        // make a LOAD-only view (no LOAD_CAP)
        Instr::Li {
            rd: ireg::T0,
            imm: i64::from(Perms::LOAD.bits() | Perms::GLOBAL.bits()),
        },
        Instr::CAndPerm {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            rs: ireg::T0,
        },
        Instr::Clc {
            cd: creg::ptr(2),
            cb: creg::ptr(1),
            off: 0,
        },
        Instr::CGetTag {
            rd: ireg::T1,
            cb: creg::ptr(2),
        },
        // through the full-perm pointer the tag survives
        Instr::Clc {
            cd: creg::ptr(3),
            cb: creg::ptr(0),
            off: 0,
        },
        Instr::CGetTag {
            rd: ireg::T2,
            cb: creg::ptr(3),
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T1), 0, "no LOAD_CAP: tag stripped");
    assert_eq!(rf.r(ireg::T2), 1, "with LOAD_CAP: tag kept");
}

#[test]
fn storing_local_cap_requires_permission() {
    let (exit, _) = run(vec![
        // make a non-GLOBAL (local) capability
        Instr::Li {
            rd: ireg::T0,
            imm: i64::from((Perms::ALL - Perms::GLOBAL).bits()),
        },
        Instr::CAndPerm {
            cd: creg::ptr(1),
            cb: creg::ptr(0),
            rs: ireg::T0,
        },
        // make a target pointer without STORE_LOCAL_CAP
        Instr::Li {
            rd: ireg::T1,
            imm: i64::from((Perms::ALL - Perms::STORE_LOCAL_CAP).bits()),
        },
        Instr::CAndPerm {
            cd: creg::ptr(2),
            cb: creg::ptr(0),
            rs: ireg::T1,
        },
        Instr::Csc {
            cs: creg::ptr(1),
            cb: creg::ptr(2),
            off: 0,
        },
    ]);
    match exit {
        Exit::Trap(t) => {
            assert_eq!(
                t.cause,
                TrapCause::Cap(CapFault::PermitStoreLocalCapViolation)
            );
        }
        e => panic!("expected store-local trap: {e:?}"),
    }
}

#[test]
fn cgetpcc_is_bounded_to_code() {
    let (exit, rf) = run(vec![Instr::CGetPcc { cd: creg::ptr(1) }, Instr::Syscall]);
    assert_eq!(exit, Exit::Syscall);
    let pcc = rf.c(creg::ptr(1));
    assert!(pcc.tag());
    assert_eq!(pcc.base(), 0x10000);
    assert!(pcc.perms().contains(Perms::EXECUTE));
    assert!(!pcc.perms().contains(Perms::STORE));
}

#[test]
fn movz_style_flow_with_slt() {
    // max(a, b) via slt + branches; exercises Slt/Sltu/SltI paths.
    let (exit, rf) = run(vec![
        Instr::Li {
            rd: ireg::A0,
            imm: 17,
        },
        Instr::Li {
            rd: ireg::A1,
            imm: 42,
        },
        Instr::Slt {
            rd: ireg::T0,
            rs: ireg::A0,
            rt: ireg::A1,
        },
        Instr::SltI {
            rd: ireg::T1,
            rs: ireg::A0,
            imm: -1,
        },
        Instr::SltuI {
            rd: ireg::T2,
            rs: ireg::A0,
            imm: 18,
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T0), 1);
    assert_eq!(rf.r(ireg::T1), 0);
    assert_eq!(rf.r(ireg::T2), 1);
}

#[test]
fn div_by_zero_is_defined_as_zero() {
    let (exit, rf) = run(vec![
        Instr::Li {
            rd: ireg::A0,
            imm: 5,
        },
        Instr::DivU {
            rd: ireg::T0,
            rs: ireg::A0,
            rt: ireg::ZERO,
        },
        Instr::DivS {
            rd: ireg::T1,
            rs: ireg::A0,
            rt: ireg::ZERO,
        },
        Instr::RemU {
            rd: ireg::T2,
            rs: ireg::A0,
            rt: ireg::ZERO,
        },
        Instr::Syscall,
    ]);
    assert_eq!(exit, Exit::Syscall);
    assert_eq!(rf.r(ireg::T0), 0);
    assert_eq!(rf.r(ireg::T1), 0);
    assert_eq!(rf.r(ireg::T2), 0);
}

#[test]
fn legacy_unaligned_access_costs_fixup_cycles() {
    // Legacy (DDC) unaligned loads are fixed up at a cycle cost; aligned
    // loads are not.
    let aligned = vec![
        Instr::Li {
            rd: ireg::T0,
            imm: 0x20000,
        },
        Instr::Load {
            rd: ireg::T1,
            base: ireg::T0,
            off: 0,
            w: Width::D,
            signed: false,
        },
        Instr::Syscall,
    ];
    let unaligned = vec![
        Instr::Li {
            rd: ireg::T0,
            imm: 0x20001,
        },
        Instr::Load {
            rd: ireg::T1,
            base: ireg::T0,
            off: 0,
            w: Width::D,
            signed: false,
        },
        Instr::Syscall,
    ];
    let cycles = |code: Vec<Instr>| {
        let (mut cpu, mut vm, id, mut rf) = machine(code);
        let root = vm.space(id).root;
        rf.ddc = root.with_source(CapSource::Exec); // legacy process
        assert_eq!(cpu.run(&mut vm, id, &mut rf, 100), Exit::Syscall);
        cpu.stats.cycles
    };
    let a = cycles(aligned);
    let u = cycles(unaligned);
    assert!(u >= a + 50, "fixup cost visible: {a} vs {u}");
}
