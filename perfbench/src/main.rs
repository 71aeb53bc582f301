//! perfbench: the repository's end-to-end benchmark, with a traced
//! per-layer split.
//!
//! ```text
//! perfbench --workload <fig4-exec|bodiag-setup|server-sched> --seed N
//!           --seconds S --trace 0|1 [--sabotage flush] [--pin]
//! ```
//!
//! Each run builds the workload's specs from the seed and executes them
//! in-process through `cheriabi::harness::Harness::new(1)`, pass after
//! pass, until `--seconds` have elapsed. An untraced run does so in
//! `SLICES` fresh processes of this binary (`--slice S`), one after
//! another, and folds their reports. Every pass is checked: clean
//! outcomes, workload invariants (ABI agreement, the Table 3 aggregate,
//! completed requests), the deterministic report lines pinned in
//! `expected/` for the default seed, and byte-identity with the run's
//! first pass (and, across processes, with the others' first passes).
//! Wrong cases are counted into `failed` and `error_rate`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced passes with traced passes that replay the harness's steps
//! through each layer's public entry points (see `traced.rs`); its
//! per-layer metrics come from those spans, from the deterministic counts
//! harvested at each layer (which must repeat exactly across passes), and
//! from fixed-input probes.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A run whose results are wrong still prints it, then exits with 1.
//! `--sabotage flush` turns on the program's test-only template
//! flush-loss knob (`RunSpec::weaken_flush`); the gate must then fail.
//! `--pin` rewrites the pinned lines of the default seed from one pass.
//! `--slice S` is one measuring process of an untraced run (`run_slice`).

mod probes;
mod traced;
mod workload;

use cheriabi::harness::{CaseOutcome, CaseReport, Harness};
use cheriabi::spec::Registry;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Plan, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <fig4-exec|bodiag-setup|server-sched> \
                     --seed N --seconds S --trace 0|1 [--sabotage flush] [--pin] [--slice S]";

/// Guest instructions of the priming dispatch timed into `setup_s`:
/// enough to enter the guest, few enough that guest execution does not
/// swamp the one-time costs (the `fig4-exec` cases run 72k to 1.1M).
const PRIME_BUDGET: u64 = 10_000;
/// Fewest measured passes per measuring process, even past its share of
/// `--seconds`.
const MIN_PASSES: usize = 1;
/// Fewest traced passes per traced run (the exact-count check needs two).
const MIN_TRACED_PASSES: usize = 2;
/// Processes an untraced run measures in, one after another. Now and
/// then one process runs half again slower than the next throughout, so
/// the run takes each case's best over several.
const SLICES: u32 = 5;
/// Host-speed probe time, ms, of the reference host that end-to-end
/// times are given for: about the probe's median on a 2-vCPU 2.1 GHz
/// Xeon VM.
const HOST_REF_MS: f64 = 10.0;
/// Least time between two host-speed samples.
const HOST_PROBE_EVERY: Duration = Duration::from_millis(250);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Turn on `RunSpec::weaken_flush` (template flush loss) in every spec.
    sabotage: bool,
    pin: bool,
    /// Run as one measuring process of an untraced run, for this many
    /// seconds.
    slice: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sabotage = false;
    let mut pin = false;
    let mut slice = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--sabotage" if value == "flush" => sabotage = true,
            "--slice" => {
                let bad = |_| format!("bad value `{value}` for {flag}");
                slice = Some(value.parse::<f64>().map_err(bad)?);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        sabotage,
        pin,
        slice,
    })
}

/// Median of `v`; NaN, which the gate flags, when `v` is empty.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted `v`.
fn percentile(v: &[f64], p: u32) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (u64::from(p) * s.len() as u64).div_ceil(100).max(1);
    s[rank as usize - 1]
}

/// The highest whole percentile of `n` cases with at least ten cases
/// beyond it.
fn tail_percentile(n: usize) -> u32 {
    assert!(n > 10, "a tail needs more than ten cases");
    (100 * (n - 10) / n) as u32
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up: everything before the first case is dispatched.
fn set_up(args: &Args) -> (Registry, Plan, Harness) {
    let registry = cheri_bench::registry();
    let mut plan = Plan::new(args.workload, args.seed);
    for spec in &mut plan.specs {
        spec.weaken_flush = args.sabotage;
    }
    (registry, plan, Harness::new(1))
}

/// Correctness bookkeeping across every pass of a run.
struct Gate {
    /// Line hashes of the run's first pass (canonical order).
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
    /// Defects of the benchmark itself (not of single cases).
    defects: Vec<String>,
    notes: Vec<String>,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            reference: None,
            attempted: 0,
            failed: 0,
            defects: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn pass(&mut self, plan: &Plan, reports: Vec<CaseReport>, label: &str) {
        let canon = plan.canonical_order(reports);
        let verdict = workload::check(plan, &canon, self.reference.as_deref());
        self.attempted += canon.len() as u64;
        self.failed += verdict.failed() as u64;
        for (i, why) in verdict.wrong.iter().take(3) {
            self.notes
                .push(format!("{label}: {} (case {i}): {why}", canon[*i].name));
        }
        if verdict.aggregate_wrong > 0 {
            self.notes.push(format!(
                "{label}: Table 3 aggregate off by {} cases",
                verdict.aggregate_wrong
            ));
        }
        if self.reference.is_none() {
            self.reference = Some(verdict.hashes);
        }
    }

    /// Checks the priming dispatch: a clean exit, the budget's included.
    fn prime(&mut self, report: &CaseReport) {
        self.attempted += 1;
        if !matches!(report.outcome, CaseOutcome::Exited(_)) {
            self.failed += 1;
            self.notes.push(format!(
                "priming dispatch of {}: outcome {}",
                report.name, report.outcome
            ));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.defects.is_empty()
    }
}

/// One untraced pass through the public harness.
struct Pass {
    wall: f64,
    /// Sum of the per-case walls (`CaseReport.wall`), s.
    case_s: f64,
    instructions: u64,
}

/// Runs one untraced pass and lowers `best[i]`, the fastest wall seen for
/// case `i` (execution order, ms), to this pass's wall where faster. An
/// empty `best` is filled from the pass.
fn untraced_pass(
    harness: &Harness,
    registry: &Registry,
    plan: &Plan,
    gate: &mut Gate,
    best: &mut Vec<f64>,
) -> Pass {
    let start = Instant::now();
    let reports = harness.run(registry, &plan.specs);
    let wall = secs(start.elapsed());
    let case_ms: Vec<f64> = reports.iter().map(|r| secs(r.wall) * 1e3).collect();
    if best.is_empty() {
        best.clone_from(&case_ms);
    }
    for (b, c) in best.iter_mut().zip(&case_ms) {
        *b = b.min(*c);
    }
    let pass = Pass {
        wall,
        case_s: case_ms.iter().sum::<f64>() / 1e3,
        instructions: reports.iter().map(|r| r.metrics.instructions).sum(),
    };
    gate.pass(plan, reports, "untraced");
    pass
}

/// A process's benchmark state after set-up, the priming dispatch and the
/// warm-up pass.
struct Session {
    registry: Registry,
    plan: Plan,
    harness: Harness,
    gate: Gate,
    /// This process's cold set-up, s.
    setup_s: f64,
    peak_rss: f64,
}

fn open_session(args: &Args, started: Instant) -> Session {
    let (registry, plan, harness) = set_up(args);
    // `setup_s` is cold: from the start of the process's work through the
    // report of a priming dispatch of the first case, cut to PRIME_BUDGET
    // guest instructions. Once-per-process work, eager in set-up or lazy
    // at the first dispatch, lands in it; the case's guest time does not.
    let prime = plan.specs[0].clone().with_budget(PRIME_BUDGET);
    let primed = harness.run(&registry, std::slice::from_ref(&prime));
    let setup_s = secs(started.elapsed());
    let mut gate = Gate::new();
    // Warm-up: fills the allocator and code caches; checked, not timed
    // (one-time work is in `setup_s`).
    untraced_pass(&harness, &registry, &plan, &mut gate, &mut Vec::new());
    gate.prime(&primed[0]);
    // Peak memory of set-up, the first dispatch and one whole pass with
    // its check. Read here, not at exit: over later passes the allocator's
    // heap layout alone can add 1.5 MB on some runs and not others.
    let peak_rss = peak_rss_mb();
    Session {
        registry,
        plan,
        harness,
        gate,
        setup_s,
        peak_rss,
    }
}

/// What one measuring process of an untraced run reports, as one line.
struct Slice {
    setup_s: f64,
    peak_rss: f64,
    attempted: u64,
    failed: u64,
    /// FNV-1a of the line hashes of the process's first pass; every
    /// process of a run must agree.
    digest: u64,
    passes: u64,
    instructions: u64,
    /// Median harness overhead of a pass (pass wall − Σ case walls), s.
    overhead: f64,
    /// Median host-probe time, ms.
    host_ms: f64,
    /// Fastest wall of each case over the process's passes, ms.
    best: Vec<f64>,
}

impl Slice {
    fn line(&self) -> String {
        let best: Vec<String> = self.best.iter().map(f64::to_string).collect();
        format!(
            "slice {} {} {} {} {} {} {} {} {} {}",
            self.setup_s,
            self.peak_rss,
            self.attempted,
            self.failed,
            self.digest,
            self.passes,
            self.instructions,
            self.overhead,
            self.host_ms,
            best.join(" ")
        )
    }

    fn parse(line: &str) -> Option<Slice> {
        let mut f = line.strip_prefix("slice ")?.split(' ');
        let mut next = || f.next().ok_or(());
        let mut slice = Slice {
            setup_s: next().ok()?.parse().ok()?,
            peak_rss: next().ok()?.parse().ok()?,
            attempted: next().ok()?.parse().ok()?,
            failed: next().ok()?.parse().ok()?,
            digest: next().ok()?.parse().ok()?,
            passes: next().ok()?.parse().ok()?,
            instructions: next().ok()?.parse().ok()?,
            overhead: next().ok()?.parse().ok()?,
            host_ms: next().ok()?.parse().ok()?,
            best: Vec::new(),
        };
        while let Ok(v) = next() {
            slice.best.push(v.parse().ok()?);
        }
        Some(slice)
    }
}

/// `--slice S`: one measuring process of an untraced run. Runs passes for
/// `seconds` from its start, samples the host probe between them, and
/// prints its [`Slice`] as the last line.
fn run_slice(args: &Args, seconds: f64) -> ExitCode {
    let started = Instant::now();
    let mut s = open_session(args, started);
    let host = probes::HostProbe::new();
    let (mut passes, mut best, mut host_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut probed = Instant::now();
    while passes.len() < MIN_PASSES || secs(started.elapsed()) < seconds {
        passes.push(untraced_pass(
            &s.harness,
            &s.registry,
            &s.plan,
            &mut s.gate,
            &mut best,
        ));
        if host_ms.is_empty() || probed.elapsed() >= HOST_PROBE_EVERY {
            host_ms.push(host.sample_ms());
            probed = Instant::now();
        }
    }
    eprint_walls(&passes);
    eprint_gate(&s.gate);
    let hashes = s.gate.reference.as_deref().unwrap_or_default();
    let slice = Slice {
        setup_s: s.setup_s,
        peak_rss: s.peak_rss,
        attempted: s.gate.attempted,
        failed: s.gate.failed,
        digest: workload::fnv64(&format!("{hashes:?}")),
        passes: passes.len() as u64,
        instructions: passes[0].instructions,
        overhead: median(&passes.iter().map(|p| p.wall - p.case_s).collect::<Vec<_>>()),
        host_ms: median(&host_ms),
        best,
    };
    println!("{}", slice.line());
    if s.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `SLICES` measuring processes of this binary one after another,
/// each given an equal share of what is left of `budget` and waited for,
/// and collects their reports. A process that reports nothing is a defect.
fn run_slices(args: &Args, started: Instant, budget: Duration, gate: &mut Gate) -> Vec<Slice> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            gate.defects
                .push(format!("cannot find own executable: {e}"));
            return Vec::new();
        }
    };
    let seed = args.seed.to_string();
    let mut slices = Vec::new();
    for k in 0..SLICES {
        let share = secs(budget.saturating_sub(started.elapsed())) / f64::from(SLICES - k);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", args.workload.name(), "--seed", &seed]);
        cmd.args(["--slice", &format!("{share:.3}")]);
        if args.sabotage {
            cmd.args(["--sabotage", "flush"]);
        }
        let out = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                gate.defects
                    .push(format!("cannot run measuring process: {e}"));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        match text.lines().last().and_then(Slice::parse) {
            Some(slice) => {
                // A process that found wrong cases exits 1 and counts them;
                // any other failure is a defect.
                if !out.status.success() && slice.failed == 0 {
                    gate.defects
                        .push(format!("measuring process {k} exited {}", out.status));
                }
                slices.push(slice);
            }
            None => gate.defects.push(format!(
                "measuring process {k} exited {} without a report",
                out.status
            )),
        }
    }
    slices
}

fn eprint_walls(passes: &[Pass]) {
    eprintln!(
        "perfbench: pass walls (s): {}",
        passes
            .iter()
            .map(|p| format!("{:.4}", p.wall))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn eprint_gate(gate: &Gate) {
    for note in gate.notes.iter().take(20) {
        eprintln!("perfbench: wrong: {note}");
    }
    for defect in &gate.defects {
        eprintln!("perfbench: defect: {defect}");
    }
}

/// Named metrics in output order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        let (registry, plan, harness) = set_up(&args);
        return pin(&args, &registry, &plan, &harness);
    }
    if let Some(seconds) = args.slice {
        return run_slice(&args, seconds);
    }
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);

    let mut metrics = Metrics(Vec::new());
    let mut host_line = None;
    let (plan, mut gate, passes, instructions) = if args.trace {
        let mut s = open_session(&args, started);
        let mut passes = Vec::new();
        let mut traced_passes = Vec::new();
        while traced_passes.len() < MIN_TRACED_PASSES || started.elapsed() < budget {
            passes.push(untraced_pass(
                &s.harness,
                &s.registry,
                &s.plan,
                &mut s.gate,
                &mut Vec::new(),
            ));
            let mut t = traced::run_pass(&s.registry, &s.plan.specs);
            s.gate
                .pass(&s.plan, std::mem::take(&mut t.reports), "traced");
            traced_passes.push(t);
        }
        let cases = s.plan.specs.len();
        layer_metrics(&mut metrics, &mut s.gate, &passes, &traced_passes, cases);
        eprint_walls(&passes);
        (s.plan, s.gate, passes.len() as u64, passes[0].instructions)
    } else {
        let plan = Plan::new(args.workload, args.seed);
        let mut gate = Gate::new();
        let slices = run_slices(&args, started, budget, &mut gate);
        let mut best = vec![f64::INFINITY; plan.specs.len()];
        for s in &slices {
            gate.attempted += s.attempted;
            gate.failed += s.failed;
            if s.digest != slices[0].digest || s.best.len() != best.len() {
                gate.defects
                    .push("measuring processes disagree".to_string());
            }
            for (b, c) in best.iter_mut().zip(&s.best) {
                *b = b.min(*c);
            }
        }
        let of = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        // Host speed on a shared machine swings by a quarter and more
        // within seconds, and by half and more over minutes, and a median
        // over whole passes would carry both from run to run. Each case's
        // fastest wall over the run's passes, in all its processes,
        // filters the fast swings and the slow processes: `wall_s` is the
        // sum of the best case walls plus the median harness overhead of a
        // pass, and the per-case metrics read the best walls. The slow
        // swings are scaled out: every time is multiplied by
        // HOST_REF_MS / the run's median host-probe time, which gives it
        // for the reference host.
        let host_median = of(|s| s.host_ms);
        let scale = HOST_REF_MS / host_median;
        let wall = best.iter().sum::<f64>() / 1e3 + of(|s| s.overhead);
        let instructions = slices.first().map_or(0, |s| s.instructions);
        let tail = tail_percentile(plan.specs.len());
        metrics.push("wall_s", wall * scale, "s");
        metrics.push(
            "guest_mips",
            instructions as f64 / (wall * scale) / 1e6,
            "MIPS",
        );
        metrics.push("case_ms_p50", median(&best) * scale, "ms");
        metrics.push("case_ms_tail", percentile(&best, tail) * scale, "ms");
        metrics.push("setup_s", of(|s| s.setup_s) * scale, "s");
        metrics.push("peak_rss_mb", of(|s| s.peak_rss), "MB");
        host_line = Some(format!(
            "{:<28} {scale:>16.6} ratio (host probe median {host_median:.3} ms, \
             reference {HOST_REF_MS} ms; unscaled wall_s {wall:.6} s)",
            "host_scale",
        ));
        let passes = slices.iter().map(|s| s.passes).sum();
        (plan, gate, passes, instructions)
    };
    let cases = plan.specs.len();
    let tail = tail_percentile(cases);

    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            gate.defects.push(format!("metric {name} is {value}"));
        }
    }
    let error_rate = gate.failed as f64 / gate.attempted as f64;
    println!(
        "perfbench {} seed={} trace={} cases={cases} passes={} guest_instr_per_pass={} \
         case_ms_tail=p{tail}{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        passes,
        instructions,
        if plan.pinned { " pinned" } else { "" },
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{:<28} {error_rate:>16.6} ratio ({} of {} case runs wrong)",
        "error_rate", gate.failed, gate.attempted
    );
    if let Some(line) = host_line {
        println!("{line}");
    }
    eprint_gate(&gate);
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.correct(),
        gate.attempted,
        gate.failed,
        body.join(",")
    );
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics of a traced run. Times are medians over passes;
/// counts come from the first traced pass and must repeat exactly.
fn layer_metrics(
    m: &mut Metrics,
    gate: &mut Gate,
    passes: &[Pass],
    traced_passes: &[traced::TracedPass],
    cases: usize,
) {
    use traced::Layer;
    let counts = traced_passes[0].counts;
    for (i, t) in traced_passes.iter().enumerate().skip(1) {
        if t.counts != counts {
            gate.defects.push(format!(
                "deterministic counts differ between traced passes 0 and {i}: {counts:?} vs {:?}",
                t.counts
            ));
        }
    }
    let of = |f: &dyn Fn(&traced::TracedPass) -> f64| {
        median(&traced_passes.iter().map(f).collect::<Vec<_>>())
    };
    let layer = |l: Layer| of(&|t| secs(t.layer_time(l)));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let (lower, boot, spawn, run, teardown) = (
        layer(Layer::Lower),
        layer(Layer::Boot),
        layer(Layer::Spawn),
        layer(Layer::Run),
        layer(Layer::Teardown),
    );
    let case_s = of(&|t| secs(t.case_wall));
    m.push("isa.lower_s", lower, "s");
    m.push("kernel.boot_s", boot, "s");
    m.push("rtld.spawn_s", spawn, "s");
    m.push("kernel.teardown_s", teardown, "s");
    m.push("kernel.boot_us_per_case", boot / cases as f64 * 1e6, "us");
    m.push("rtld.spawn_us_per_case", spawn / cases as f64 * 1e6, "us");
    m.push(
        "core.harness_s",
        median(&passes.iter().map(|p| p.wall - p.case_s).collect::<Vec<_>>()),
        "s",
    );
    m.push("cpu.run_s", run, "s");
    m.push("cpu.run_mips", counts.instret as f64 / run / 1e6, "MIPS");
    m.push(
        "cpu.run_share",
        of(&|t| secs(t.layer_time(Layer::Run)) / secs(t.case_wall)),
        "ratio",
    );
    m.push(
        "setup_layers_share",
        of(&|t| {
            secs(
                t.layer_time(Layer::Boot)
                    + t.layer_time(Layer::Spawn)
                    + t.layer_time(Layer::Teardown),
            ) / secs(t.case_wall)
        }),
        "ratio",
    );
    m.push("cpu.instret", counts.instret as f64, "count");
    m.push("cpu.tmpl_compiles", counts.tmpl_compiles as f64, "count");
    m.push("cpu.tmpl_hits", counts.tmpl_hits as f64, "count");
    m.push(
        "cpu.tmpl_hits_per_compile",
        ratio(counts.tmpl_hits, counts.tmpl_compiles),
        "ratio",
    );
    m.push(
        "cpu.sb_miss_rate",
        ratio(counts.sb_misses, counts.sb_hits + counts.sb_misses),
        "ratio",
    );
    m.push(
        "cpu.tlb_miss_rate",
        ratio(counts.tlb_misses, counts.tlb_hits + counts.tlb_misses),
        "ratio",
    );
    m.push("mem.events", counts.l1_accesses as f64, "count");
    m.push(
        "mem.events_per_instr",
        ratio(counts.l1_accesses, counts.instret),
        "ratio",
    );
    m.push("mem.l2_accesses", counts.l2_accesses as f64, "count");
    m.push("mem.access_ns", probes::mem_access_ns(), "ns");
    m.push("cap.check_access_ns", probes::cap_check_access_ns(), "ns");
    m.push("vm.lookup_ns", probes::vm_lookup_ns(), "ns");
    m.push("kernel.syscalls", counts.syscalls as f64, "count");
    m.push("kernel.ctx_switches", counts.ctx_switches as f64, "count");
    m.push("vm.faults", counts.vm_faults as f64, "count");
    m.push("core.traced_case_s", case_s, "s");
    m.push(
        "core.unattributed_s",
        of(&|t| {
            let spans: Duration = Layer::ALL.iter().map(|&l| t.layer_time(l)).sum();
            secs(t.case_wall) - secs(spans)
        }),
        "s",
    );
    m.push(
        "trace_overhead",
        of(&|t| secs(t.wall)) / median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>()),
        "ratio",
    );
}

/// Rewrites `expected/<workload>.txt` from one pass of the default seed.
fn pin(args: &Args, registry: &Registry, plan: &Plan, harness: &Harness) -> ExitCode {
    if !plan.pinned || args.sabotage {
        eprintln!("perfbench: --pin needs the default seed ({DEFAULT_SEED}) and no sabotage");
        return ExitCode::from(2);
    }
    let reports = harness.run(registry, &plan.specs);
    let canon = plan.canonical_order(reports);
    let path = format!(
        "{}/expected/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        args.workload.name()
    );
    match std::fs::write(&path, workload::pin_text(&canon)) {
        Ok(()) => {
            eprintln!("perfbench: pinned {} cases to {path}", canon.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
