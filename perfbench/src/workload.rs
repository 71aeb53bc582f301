//! The benchmark's workloads: which specs each one runs for a seed, and
//! what a correct result looks like.
//!
//! Every spec list comes from the library functions the paper binaries
//! use (`trial_specs` for `fig4`, `table3_specs` for `table3`, and the
//! `ProgramSpec::Scenario` cells of `table_server`), so the benchmark and
//! the tables cannot drift apart.

use bodiagsuite::{all_cases, table3_from_reports, table3_specs, Config};
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, ExitStatus, KernelConfig};
use cheri_workloads::trials::{trial_specs, Trial};
use cheriabi::harness::{CaseOutcome, CaseReport, RunSpec};
use cheriabi::spec::ProgramSpec;
use std::collections::BTreeMap;

/// The seed whose guest results are pinned in `expected/`. With it,
/// `fig4-exec` runs exactly the paper binary's seeds.
pub const DEFAULT_SEED: u64 = 1;

/// The input seeds `fig4` itself uses.
const FIG4_SEEDS: [u64; 5] = [3, 7, 13, 29, 61];

/// Scenario grid: queries per client, client counts, and seed replicas
/// per (ABI, swap, clients) cell.
const SERVER_QUERIES: u64 = 30;
const SERVER_CLIENTS: [u64; 2] = [8, 16];
const SERVER_REPLICAS: u64 = 5;

/// Table 3 as the paper binary prints it at the pinned commit: detected
/// cases per (ABI, variant) with variants min, med, large.
const TABLE3_EXPECTED: [(Config, [usize; 3]); 3] = [
    (Config::Mips64, [0, 0, 180]),
    (Config::CheriAbi, [279, 289, 291]),
    (Config::Asan, [276, 286, 288]),
];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 4 trial matrix: guest execution dominates.
    Fig4Exec,
    /// The Table 3 BOdiagsuite matrix: per-case fixed cost dominates.
    BodiagSetup,
    /// minidb server + clients over blocking pipes: scheduler, syscalls,
    /// COW and swap, with exact cache events.
    ServerSched,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Exec,
        Workload::BodiagSetup,
        Workload::ServerSched,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Exec => "fig4-exec",
            Workload::BodiagSetup => "bodiag-setup",
            Workload::ServerSched => "server-sched",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pinned `<fnv64 of the deterministic line> <case name>` lines, in
    /// canonical case order, for the seeds [`Plan::pinned`] accepts.
    fn expected(self) -> &'static str {
        match self {
            Workload::Fig4Exec => include_str!("../expected/fig4-exec.txt"),
            Workload::BodiagSetup => include_str!("../expected/bodiag-setup.txt"),
            Workload::ServerSched => include_str!("../expected/server-sched.txt"),
        }
    }
}

/// The specs one run of a workload executes.
pub struct Plan {
    pub workload: Workload,
    /// Specs in execution order.
    pub specs: Vec<RunSpec>,
    /// `canonical[i]` is the canonical case index of `specs[i]` (the
    /// index the paper binary would give it). Checks and pinned lines use
    /// canonical indices.
    pub canonical: Vec<usize>,
    /// Whether the pinned expectations apply to this seed.
    pub pinned: bool,
}

impl Plan {
    /// Builds the workload's specs for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let (specs, canonical, pinned) = match workload {
            Workload::Fig4Exec => {
                let seeds = if seed == DEFAULT_SEED {
                    FIG4_SEEDS
                } else {
                    derived_seeds(seed)
                };
                let specs = trial_specs(&fig4_trials(), &seeds);
                let canonical = (0..specs.len()).collect();
                (specs, canonical, seed == DEFAULT_SEED)
            }
            Workload::BodiagSetup => {
                // Table 3 has no input seed of its own; the seed picks the
                // order the cases run in. Guest results do not depend on
                // it, so the pinned lines hold for every seed.
                let canonical_specs = table3_specs(&all_cases());
                let mut order: Vec<usize> = (0..canonical_specs.len()).collect();
                shuffle(&mut order, seed);
                let specs = order.iter().map(|&i| canonical_specs[i].clone()).collect();
                (specs, order, true)
            }
            Workload::ServerSched => {
                let specs = server_specs(seed);
                let canonical = (0..specs.len()).collect();
                (specs, canonical, seed == DEFAULT_SEED)
            }
        };
        Plan {
            workload,
            specs,
            canonical,
            pinned,
        }
    }

    /// Moves execution-order `reports` into canonical order, in place, so
    /// the check adds no second copy of a pass's reports to `peak_rss_mb`.
    pub fn canonical_order(&self, mut reports: Vec<CaseReport>) -> Vec<CaseReport> {
        // `target[i]` is where the report now at `i` belongs.
        let mut target = self.canonical.clone();
        for i in 0..reports.len() {
            while target[i] != i {
                let t = target[i];
                reports.swap(i, t);
                target.swap(i, t);
            }
        }
        reports
    }
}

/// The 13 Figure 4 trials, built exactly as the `fig4` binary builds them.
fn fig4_trials() -> Vec<Trial> {
    let mut trials: Vec<Trial> = cheri_workloads::all()
        .iter()
        .map(Trial::from_workload)
        .collect();
    trials.push(Trial::new(
        "initdb-dynamic",
        ProgramSpec::InitdbDynamic { base_records: 360 },
    ));
    trials
}

/// The scenario grid: {mips64, cheriabi} x {no swap, swap pressure} x
/// client counts x seed replicas, with `table_server`'s tight pipes.
fn server_specs(seed: u64) -> Vec<RunSpec> {
    let tight_pipes = KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    };
    let seeds = derived_seeds(seed);
    let mut specs = Vec::new();
    for (abi, opts) in [
        (AbiMode::Mips64, CodegenOpts::mips64()),
        (AbiMode::CheriAbi, CodegenOpts::purecap()),
    ] {
        for swap in [false, true] {
            for clients in SERVER_CLIENTS {
                for &cell_seed in &seeds[..SERVER_REPLICAS as usize] {
                    let suffix = if swap { "-swap" } else { "" };
                    specs.push(
                        RunSpec::new(
                            format!("server-{abi}-c{clients}{suffix}-s{cell_seed}"),
                            ProgramSpec::Scenario {
                                clients,
                                queries: SERVER_QUERIES,
                                mix: "mixed".to_string(),
                                swap_pressure: swap,
                            },
                            opts,
                            abi,
                        )
                        .with_seed(cell_seed)
                        .with_config(tight_pipes),
                    );
                }
            }
        }
    }
    specs
}

/// splitmix64: the benchmark's one source of derived randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Five distinct guest input seeds derived from the workload seed.
fn derived_seeds(seed: u64) -> [u64; 5] {
    let mut state = seed;
    let mut out = [0u64; 5];
    let mut n = 0;
    while n < out.len() {
        let s = 1 + splitmix(&mut state) % 1_000_000;
        if !out[..n].contains(&s) {
            out[n] = s;
            n += 1;
        }
    }
    out
}

/// Fisher-Yates shuffle driven by `seed`.
fn shuffle(v: &mut [usize], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// FNV-1a over a deterministic report line.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of each report's deterministic line, in canonical order.
pub fn line_hashes(reports: &[CaseReport]) -> Vec<u64> {
    reports
        .iter()
        .enumerate()
        .map(|(i, r)| fnv64(&r.to_json_deterministic(i).to_string()))
        .collect()
}

/// The pinned file for `reports` (canonical order).
pub fn pin_text(reports: &[CaseReport]) -> String {
    line_hashes(reports)
        .iter()
        .zip(reports)
        .map(|(h, r)| format!("{h:016x} {}\n", r.name))
        .collect()
}

/// One pass's verdict: wrong cases by canonical index (with the reason),
/// and a lower bound on wrong cases from aggregate checks.
#[derive(Default)]
pub struct Verdict {
    pub wrong: BTreeMap<usize, String>,
    pub aggregate_wrong: usize,
    /// [`line_hashes`] of the checked reports.
    pub hashes: Vec<u64>,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.wrong.len().max(self.aggregate_wrong)
    }

    fn flag(&mut self, case: usize, reason: String) {
        self.wrong.entry(case).or_insert(reason);
    }
}

/// Checks one pass's reports (canonical order) against everything known
/// about a correct result: clean outcomes, workload-specific invariants,
/// the pinned lines where they apply, and `reference` (the hashes of an
/// earlier pass of the same run) where given.
pub fn check(plan: &Plan, reports: &[CaseReport], reference: Option<&[u64]>) -> Verdict {
    let mut v = Verdict::default();
    for (i, r) in reports.iter().enumerate() {
        match &r.outcome {
            CaseOutcome::Exited(status) => {
                match plan.workload {
                    // Trials exit with their result as the status code.
                    Workload::Fig4Exec if !matches!(status, ExitStatus::Code(_)) => {
                        v.flag(i, format!("exited {status:?}"));
                    }
                    Workload::ServerSched if *status != ExitStatus::Code(0) => {
                        v.flag(i, format!("exited {status:?}"));
                    }
                    Workload::ServerSched => {
                        let s = r.scenario.unwrap_or_default();
                        if s.completed != s.requests || s.requests == 0 {
                            v.flag(i, format!("{} of {} requests", s.completed, s.requests));
                        }
                    }
                    _ => {}
                }
            }
            other => v.flag(i, format!("outcome {other}")),
        }
    }
    match plan.workload {
        // Both ABIs of a trial must compute the same answer.
        Workload::Fig4Exec => {
            for pair in (0..reports.len()).step_by(2) {
                let (a, b) = (&reports[pair], &reports[pair + 1]);
                if a.outcome != b.outcome || a.console != b.console {
                    v.flag(pair + 1, format!("ABIs disagree with {}", a.name));
                }
            }
        }
        Workload::BodiagSetup => {
            let table = table3_from_reports(&all_cases(), reports);
            let mut off = table.errors.len() + table.false_positives.len();
            for (config, expected) in TABLE3_EXPECTED {
                let got = table
                    .detected
                    .iter()
                    .find(|(c, _)| *c == config)
                    .map_or([0; 3], |(_, counts)| *counts);
                off += got
                    .iter()
                    .zip(expected)
                    .map(|(g, e)| g.abs_diff(e))
                    .sum::<usize>();
            }
            v.aggregate_wrong = off;
        }
        Workload::ServerSched => {}
    }
    let hashes = line_hashes(reports);
    if plan.pinned {
        let pinned: Vec<(u64, &str)> = plan
            .workload
            .expected()
            .lines()
            .filter_map(|l| {
                let (h, name) = l.split_once(' ')?;
                Some((u64::from_str_radix(h, 16).ok()?, name))
            })
            .collect();
        for (i, (h, r)) in hashes.iter().zip(reports).enumerate() {
            match pinned.get(i) {
                Some((p, name)) if p == h && *name == r.name => {}
                _ => v.flag(i, "differs from the pinned line".to_string()),
            }
        }
    }
    if let Some(reference) = reference {
        for (i, (h, r)) in hashes.iter().zip(reference).enumerate() {
            if h != r {
                v.flag(i, "differs from an earlier pass".to_string());
            }
        }
    }
    v.hashes = hashes;
    v
}
