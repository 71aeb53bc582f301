//! The traced run: the steps of the harness's `execute_once`, replayed
//! from outside the program through each layer's public entry points,
//! with one span per layer call per case.
//!
//! The replica must stay step-for-step faithful — lower, boot, tier
//! set-up, exact events for scenario cells, spawn, run, harvest, drop —
//! because its reports are checked byte for byte against the untraced
//! harness run of the same specs.

use cheri_kernel::{ExitStatus, Pid, RunOutcome, SpawnOpts};
use cheri_mem::{CacheConfig, CacheHierarchy};
use cheriabi::harness::{
    CaseOutcome, CaseReport, ExecMode, HostCounters, MembraneMode, OracleMode, RunSpec,
    ScenarioStats,
};
use cheriabi::spec::{ProgramSpec, Registry};
use cheriabi::{Metrics, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Registry::lower`: builders, codegen and the rtld `ProgramBuilder`.
    Lower,
    /// `System::with_config`.
    Boot,
    /// `Kernel::spawn`: execve, load and relocation.
    Spawn,
    /// `Kernel::run`: guest execution on the tiers and everything beneath.
    Run,
    /// Dropping the `System`.
    Teardown,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Lower,
        Layer::Boot,
        Layer::Spawn,
        Layer::Run,
        Layer::Teardown,
    ];
}

/// Deterministic work counts summed over a pass. Two passes of the same
/// code and specs must produce identical counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub instret: u64,
    pub tmpl_compiles: u64,
    pub tmpl_hits: u64,
    pub sb_hits: u64,
    pub sb_misses: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub syscalls: u64,
    pub ctx_switches: u64,
    pub blocks: u64,
    pub vm_faults: u64,
    pub cow_copies: u64,
    pub swap_outs: u64,
    pub swap_ins: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.instret += o.instret;
        self.tmpl_compiles += o.tmpl_compiles;
        self.tmpl_hits += o.tmpl_hits;
        self.sb_hits += o.sb_hits;
        self.sb_misses += o.sb_misses;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.l1_accesses += o.l1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.syscalls += o.syscalls;
        self.ctx_switches += o.ctx_switches;
        self.blocks += o.blocks;
        self.vm_faults += o.vm_faults;
        self.cow_copies += o.cow_copies;
        self.swap_outs += o.swap_outs;
        self.swap_ins += o.swap_ins;
    }

    fn harvest(sys: &System) -> Counts {
        let cpu = &sys.kernel.cpu.stats;
        let mem = sys.kernel.cpu.caches.stats();
        let vm = &sys.kernel.vm.stats;
        let k = &sys.kernel.stats;
        Counts {
            instret: cpu.instret,
            tmpl_compiles: cpu.tmpl_compiles,
            tmpl_hits: cpu.tmpl_hits,
            sb_hits: cpu.sb_hits,
            sb_misses: cpu.sb_misses,
            tlb_hits: cpu.tlb_hits,
            tlb_misses: cpu.tlb_misses,
            l1_accesses: mem.l1i_hits + mem.l1i_misses + mem.l1d_hits + mem.l1d_misses,
            l2_accesses: mem.l2_hits + mem.l2_misses,
            syscalls: k.syscalls.values().sum(),
            ctx_switches: k.ctx_switches,
            blocks: k.blocks,
            vm_faults: vm.faults,
            cow_copies: vm.cow_copies,
            swap_outs: vm.swap_outs,
            swap_ins: vm.swap_ins,
        }
    }
}

/// One traced pass over a spec list.
pub struct TracedPass {
    /// Reports in execution order.
    pub reports: Vec<CaseReport>,
    /// Summed span time per layer, indexed by `Layer as usize`.
    spans: [Duration; Layer::ALL.len()],
    pub counts: Counts,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Sum of the per-case walls (each covers its case's spans).
    pub case_wall: Duration,
}

impl TracedPass {
    /// Total span time of `layer`.
    pub fn layer_time(&self, layer: Layer) -> Duration {
        self.spans[layer as usize]
    }
}

/// Runs every spec through the traced replica, in order, on this thread.
pub fn run_pass(registry: &Registry, specs: &[RunSpec]) -> TracedPass {
    let start = Instant::now();
    let mut spans = [Duration::ZERO; Layer::ALL.len()];
    let mut counts = Counts::default();
    let reports: Vec<CaseReport> = specs
        .iter()
        .map(|spec| {
            let (report, c) = traced_case(registry, spec, &mut spans);
            counts.add(&c);
            report
        })
        .collect();
    let wall = start.elapsed();
    TracedPass {
        case_wall: reports.iter().map(|r| r.wall).sum(),
        reports,
        spans,
        counts,
        wall,
    }
}

/// Times `f` as one span of `layer`, added to that layer's total.
fn span<T>(spans: &mut [Duration], layer: Layer, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans[layer as usize] += start.elapsed();
    out
}

/// What the traced closure hands back on a clean (non-panicking) run.
struct Harvest {
    result: Result<(ExitStatus, String, Metrics), String>,
    scenario: Option<(Option<String>, ScenarioStats)>,
    divergence: Option<String>,
    host: HostCounters,
    membrane: Option<cheri_kernel::AllocEvidence>,
    counts: Counts,
}

fn traced_case(
    registry: &Registry,
    spec: &RunSpec,
    spans: &mut [Duration],
) -> (CaseReport, Counts) {
    // The replica covers what the benchmark's specs use; the oracle,
    // fault and derivation-trace planes change execute_once's steps.
    assert!(
        spec.oracle == OracleMode::Off && spec.fault.is_none() && !spec.trace,
        "traced replica does not model oracle, fault or trace specs"
    );
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = span(spans, Layer::Lower, || {
            registry.lower(&spec.program, spec.opts, spec.seed)
        });
        let mut sys = span(spans, Layer::Boot, || System::with_config(spec.config));
        if let Some(l2) = spec.l2_size {
            sys.kernel.cpu.caches = CacheHierarchy::new(
                CacheConfig::l1_default(),
                CacheConfig {
                    size: l2,
                    line: 64,
                    ways: 8,
                },
            );
        }
        match spec.exec_mode {
            ExecMode::SingleStep => sys.kernel.cpu.set_fast_path(false),
            ExecMode::Superblock => {
                sys.kernel.cpu.set_fast_path(true);
                sys.kernel.cpu.set_templates(false);
            }
            ExecMode::Template => {
                sys.kernel.cpu.set_fast_path(true);
                sys.kernel.cpu.set_templates(true);
            }
        }
        sys.kernel.cpu.set_weaken_sem(spec.weaken_sem);
        sys.kernel.cpu.set_weaken_flush(spec.weaken_flush);
        let mut opts = SpawnOpts::new(spec.abi);
        opts.asan = spec.asan;
        opts.instr_budget = spec.instr_budget;
        opts.hardened = spec.abi_mode == MembraneMode::Hardened;
        opts.weaken_quarantine = spec.weaken_quarantine;
        let scenario_shape = match &spec.program {
            ProgramSpec::Scenario {
                clients, queries, ..
            } => Some((*clients, *queries)),
            _ => None,
        };
        if scenario_shape.is_some() {
            // As System::run_scenario: mid-run cycle stamps need exact
            // cache-event charging.
            sys.kernel.cpu.set_exact_mem_events(true);
        }
        let c0 = sys.kernel.cpu.stats;
        let m0 = sys.kernel.cpu.caches.stats();
        let spawned = span(spans, Layer::Spawn, || sys.kernel.spawn(&program, &opts));
        let (result, scenario) = match spawned {
            Ok(main) => {
                let budget = sys.kernel.process(main).instr_budget;
                let outcome = span(spans, Layer::Run, || sys.kernel.run(budget));
                let status = sys
                    .kernel
                    .exit_status(main)
                    .unwrap_or(ExitStatus::BudgetExhausted);
                let console = sys.kernel.process(main).console_string();
                let c1 = sys.kernel.cpu.stats;
                let m1 = sys.kernel.cpu.caches.stats();
                let metrics = Metrics {
                    instructions: c1.instret - c0.instret,
                    cycles: c1.cycles - c0.cycles,
                    l2_misses: m1.l2_misses - m0.l2_misses,
                    syscalls: c1.syscalls - c0.syscalls,
                };
                let scenario = scenario_shape.map(|(clients, queries)| {
                    let deadlock =
                        (outcome == RunOutcome::Deadlock).then(|| sys.kernel.blocked_diagnostics());
                    let mut latencies = Vec::new();
                    for i in 0..clients {
                        let Some(client) = sys.kernel.try_process(Pid(main.0 + 2 + i)) else {
                            continue;
                        };
                        latencies.extend(
                            client
                                .console
                                .chunks_exact(8)
                                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
                        );
                    }
                    let stats =
                        ScenarioStats::from_latencies(clients, clients * queries, &latencies);
                    (deadlock, stats)
                });
                (Ok((status, console, metrics)), scenario)
            }
            Err(load) => (Err(load.to_string()), None),
        };
        let harvest = Harvest {
            result,
            scenario,
            divergence: sys.kernel.cpu.take_divergence().map(|d| d.to_string()),
            host: HostCounters {
                tlb_hits: sys.kernel.cpu.stats.tlb_hits,
                tlb_misses: sys.kernel.cpu.stats.tlb_misses,
                sb_hits: sys.kernel.cpu.stats.sb_hits,
                sb_misses: sys.kernel.cpu.stats.sb_misses,
                wakes: sys.kernel.stats.wakes,
                blocks: sys.kernel.stats.blocks,
                max_runq_depth: sys.kernel.stats.max_runq_depth,
                ctx_switches: sys.kernel.stats.ctx_switches,
            },
            membrane: (spec.abi_mode == MembraneMode::Hardened).then_some(sys.kernel.membrane),
            counts: Counts::harvest(&sys),
        };
        span(spans, Layer::Teardown, || drop(sys));
        harvest
    }));
    let wall = start.elapsed();
    let mut report = CaseReport {
        name: spec.name.clone(),
        seed: spec.seed,
        outcome: CaseOutcome::Panicked(String::new()),
        console: String::new(),
        metrics: Metrics::default(),
        wall,
        cap_cdf: None,
        retries: 0,
        quarantined: false,
        faults: None,
        host: None,
        scenario: None,
        membrane: None,
    };
    let h = match run {
        Ok(h) => h,
        Err(payload) => {
            report.outcome = CaseOutcome::Panicked(panic_message(payload.as_ref()));
            return (report, Counts::default());
        }
    };
    report.host = (h.host != HostCounters::default()).then_some(h.host);
    report.membrane = h.membrane;
    match h.result {
        Ok((status, console, metrics)) => {
            report.outcome = match (&h.divergence, &h.scenario) {
                (Some(d), _) => CaseOutcome::Divergence(d.clone()),
                (None, Some((Some(diag), _))) => CaseOutcome::Deadlock(diag.clone()),
                _ => CaseOutcome::Exited(status),
            };
            report.console = console;
            report.metrics = metrics;
            report.scenario = h.scenario.map(|(_, stats)| stats);
        }
        Err(load) => report.outcome = CaseOutcome::LoadFailed(load),
    }
    (report, h.counts)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
