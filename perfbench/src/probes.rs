//! Fixed-input probes of single operations in the `mem`, `cap` and `vm`
//! layers, and of the host's speed. Inputs never depend on the workload
//! or seed, so a layer probe's figure moves only with the probed code and
//! the host, and the host probe's only with the host.

use cheri_cap::{CapFormat, CapSource, Capability, Perms, PrincipalId};
use cheri_mem::{AccessKind, CacheConfig, CacheHierarchy, FRAME_SIZE};
use cheri_vm::{Access, Backing, Prot, Vm};
use std::hint::black_box;
use std::time::Instant;

/// Operations per probe repetition.
const OPS: usize = 1 << 18;
/// Repetitions per probe; the median is reported.
const REPS: usize = 7;

/// Median nanoseconds per operation of `rep`, which performs `OPS`
/// operations per call on the state `fresh` builds, untimed, before each
/// repetition.
fn median_ns_per_op<S>(mut fresh: impl FnMut() -> S, mut rep: impl FnMut(&mut S)) -> f64 {
    let mut ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = fresh();
            let t = Instant::now();
            rep(&mut state);
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPS / 2]
}

/// `CacheHierarchy::access` over a fixed pseudo-random stream: a 1 MiB
/// footprint (beyond L1 and L2), one fetch per two data accesses.
pub fn mem_access_ns() -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let stream: Vec<(u64, AccessKind)> = (0..OPS)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let kind = match i % 3 {
                0 => AccessKind::Fetch,
                1 => AccessKind::Load,
                _ => AccessKind::Store,
            };
            ((state % (1 << 20)) & !7, kind)
        })
        .collect();
    median_ns_per_op(
        || CacheHierarchy::new(CacheConfig::l1_default(), CacheConfig::l2_default()),
        |caches| {
            for &(pa, kind) in &stream {
                black_box(caches.access(black_box(pa), kind));
            }
        },
    )
}

/// `Capability::check_access` on in-bounds 8-byte loads of a 4 KiB
/// object.
pub fn cap_check_access_ns() -> f64 {
    let base = 0x1_0000;
    let cap = Capability::root(CapFormat::C128, PrincipalId::from_raw(1), CapSource::Malloc)
        .with_addr(base)
        .set_bounds(4096, true)
        .expect("a 4 KiB object at a page boundary is representable");
    median_ns_per_op(
        || (),
        |()| {
            for i in 0..OPS as u64 {
                let addr = base + (i * 8) % 4096;
                black_box(black_box(&cap).check_access(addr, 8, Perms::LOAD)).ok();
            }
        },
    )
}

/// `Vm::lookup` hits: read translations of 64 resident pages.
pub fn vm_lookup_ns() -> f64 {
    const PAGES: u64 = 64;
    let mut vm = Vm::new(256);
    let space = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
    let start = vm
        .map(
            space,
            None,
            PAGES * FRAME_SIZE,
            Prot::rw(),
            Backing::Zero,
            "probe",
        )
        .expect("map probe region");
    for p in 0..PAGES {
        vm.translate(space, start + p * FRAME_SIZE, Access::Write)
            .expect("fault probe page in");
    }
    median_ns_per_op(
        || (),
        |()| {
            for i in 0..OPS as u64 {
                let vaddr = start + (i * 72) % (PAGES * FRAME_SIZE);
                black_box(black_box(&vm).lookup(space, vaddr, Access::Read));
            }
        },
    )
}

/// Dependent loads per host-speed sample: about 10 ms on a 2.1 GHz Xeon.
const HOST_STEPS: usize = 2_000_000;

/// A host-speed probe: a dependent-load chase around a fixed ring of
/// 64Ki `u32`s (256 KiB, resident in L2). It runs none of the program's
/// code, so its time moves only with the host's speed.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        const SLOTS: usize = 1 << 16;
        let mut order: Vec<u32> = (0..SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0; SLOTS];
        for (k, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(k + 1) % SLOTS];
        }
        HostProbe { next }
    }

    /// Milliseconds for `HOST_STEPS` dependent loads.
    pub fn sample_ms(&self) -> f64 {
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..HOST_STEPS {
            i = self.next[i as usize];
        }
        black_box(i);
        t.elapsed().as_secs_f64() * 1e3
    }
}
