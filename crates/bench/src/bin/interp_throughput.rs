//! Host-side interpreter throughput: guest-MIPS across the three execution
//! tiers — the reference interpreter (`--exec-mode single`, also the
//! `--oracle replay` baseline), the TLB step loop with templates held off
//! (`--exec-mode superblock`), and the template tier on top (`--exec-mode
//! template`, the default everywhere else). The ref row prices the oracle:
//! `ref_overhead` is template MIPS over reference MIPS, an upper bound on
//! the slowdown of `--oracle replay`.
//!
//! Unlike every other binary here, this one measures *host* wall time, so
//! its numbers vary run to run and machine to machine. Guest-visible
//! metrics must NOT vary: the binary re-measures each program in every
//! mode and exits non-zero if any counter differs, making every
//! invocation a determinism check for the TLB/epoch fast path and the
//! template tier. `--weaken-flush` deliberately drops one template exit
//! flush so CI can prove that check has teeth (the run must exit
//! non-zero).
//!
//! Writes `BENCH_interp.json` (see EXPERIMENTS.md).

use std::time::Instant;

use cheri_bench::cli::json_f64;
use cheri_corpus::families::freebsd_suite;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig, SpawnOpts};
use cheriabi::spec::{ProgramSpec, Registry};
use cheriabi::{Metrics, System};

const USAGE: &str = "usage: interp_throughput [options]
  --weaken-flush    test-only: drop one template exit flush; the metric
                    cross-check must then fail (exit non-zero)
  --trials <n>      wall-time trials per mode (default 3, best-of)
  --spin-iters <n>  spin loop iterations (default 2000000)
  --out <path>      output JSON path (default BENCH_interp.json)
  -h, --help        this help";

struct Opts {
    weaken_flush: bool,
    trials: u32,
    spin_iters: i64,
    out: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        weaken_flush: false,
        trials: 3,
        spin_iters: 2_000_000,
        out: "BENCH_interp.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--weaken-flush" => opts.weaken_flush = true,
            "--trials" => {
                opts.trials = args
                    .next()
                    .ok_or("--trials needs a value")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--spin-iters" => {
                opts.spin_iters = args
                    .next()
                    .ok_or("--spin-iters needs a value")?
                    .parse()
                    .map_err(|e| format!("--spin-iters: {e}"))?;
            }
            "--out" => opts.out = args.next().ok_or("--out needs a value")?,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    Ok(opts)
}

/// An interpreter execution mode, in table order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The reference interpreter (`--exec-mode single`): pure per-step
    /// semantics, no TLB, no resident region — the replay oracle's
    /// baseline.
    Ref,
    /// The TLB step loop with templates held off (`--exec-mode
    /// superblock`).
    Fast,
    /// Templates promoted from the TLB step loop (`--exec-mode template`,
    /// the default everywhere else).
    Tmpl,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Ref, Mode::Fast, Mode::Tmpl];

    fn label(self) -> &'static str {
        match self {
            Mode::Ref => "ref",
            Mode::Fast => "fast",
            Mode::Tmpl => "tmpl",
        }
    }
}

/// One timed execution. Returns guest metrics and host wall seconds.
fn run_once(registry: &Registry, spec: &ProgramSpec, mode: Mode, weaken: bool) -> (Metrics, f64) {
    let program = registry.lower(spec, CodegenOpts::purecap(), 0);
    let mut sys = System::with_config(KernelConfig::default());
    match mode {
        Mode::Ref => sys.kernel.cpu.set_fast_path(false),
        Mode::Fast => sys.kernel.cpu.set_templates(false),
        Mode::Tmpl => sys.kernel.cpu.set_weaken_flush(weaken),
    }
    let opts = SpawnOpts::new(AbiMode::CheriAbi);
    let start = Instant::now();
    let (_, _, metrics) = sys.measure(&program, &opts).expect("program loads");
    (metrics, start.elapsed().as_secs_f64())
}

/// Best-of-`trials` wall time for one (program, mode) pair; asserts the
/// guest metrics are identical across trials.
fn run_mode(
    registry: &Registry,
    spec: &ProgramSpec,
    mode: Mode,
    trials: u32,
    weaken: bool,
) -> (Metrics, f64) {
    let (metrics, mut best) = run_once(registry, spec, mode, weaken);
    for _ in 1..trials {
        let (m, wall) = run_once(registry, spec, mode, weaken);
        assert_eq!(m, metrics, "guest metrics must be identical across trials");
        best = best.min(wall);
    }
    (metrics, best)
}

fn mips(instructions: u64, wall: f64) -> f64 {
    instructions as f64 / wall / 1e6
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("interp_throughput: {e}");
            std::process::exit(2);
        }
    };
    let registry = cheri_bench::registry();
    let corpus_case = freebsd_suite()
        .first()
        .map(|c| c.name.clone())
        .expect("non-empty corpus");
    let programs: Vec<(String, ProgramSpec)> = vec![
        (
            "spin".to_string(),
            ProgramSpec::Spin {
                iters: opts.spin_iters,
            },
        ),
        (
            "workload:auto-qsort".to_string(),
            ProgramSpec::Workload {
                name: "auto-qsort".to_string(),
            },
        ),
        (
            format!("corpus:{corpus_case}"),
            ProgramSpec::Corpus { case: corpus_case },
        ),
    ];
    let mut lines = Vec::new();
    let mut spin_ref_overhead: Option<f64> = None;
    let mut spin_tmpl_speedup: Option<f64> = None;
    let mut mismatch = false;
    println!(
        "{:<28} {:>12} {:>11} {:>11} {:>11} {:>12} {:>9}",
        "program",
        "guest instrs",
        "ref MIPS",
        "fast MIPS",
        "tmpl MIPS",
        "ref overhead",
        "tmpl gain"
    );
    for (name, spec) in &programs {
        // (wall seconds, MIPS) per mode, in `Mode::ALL` order.
        let mut rows = Vec::new();
        let mut ref_metrics = None;
        for mode in Mode::ALL {
            let weaken = opts.weaken_flush && mode == Mode::Tmpl;
            let (metrics, wall) = run_mode(&registry, spec, mode, opts.trials, weaken);
            // Every mode is checked against the first (the reference).
            let reference = ref_metrics.get_or_insert(metrics);
            if metrics != *reference {
                eprintln!(
                    "interp_throughput: {name}: guest metrics diverge between \
                     {} and ref: {metrics:?} vs {reference:?}",
                    mode.label()
                );
                mismatch = true;
            }
            rows.push((wall, mips(metrics.instructions, wall)));
        }
        let metrics = ref_metrics.expect("at least one mode");
        let [(_, ref_mips), (_, fast_mips), (_, tmpl_mips)] = rows[..] else {
            unreachable!("one row per mode")
        };
        let ref_overhead = tmpl_mips / ref_mips;
        let tmpl_speedup = tmpl_mips / fast_mips;
        if name == "spin" {
            spin_ref_overhead = Some(ref_overhead);
            spin_tmpl_speedup = Some(tmpl_speedup);
        }
        println!(
            "{:<28} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>11.2}x {:>8.2}x",
            name, metrics.instructions, ref_mips, fast_mips, tmpl_mips, ref_overhead, tmpl_speedup,
        );
        let mut line = format!(
            "{{\"program\":\"{}\",\"instructions\":{},\"cycles\":{}",
            cheri_bench::cli::json_escape(name),
            metrics.instructions,
            metrics.cycles,
        );
        for (mode, (wall, mode_mips)) in Mode::ALL.into_iter().zip(&rows) {
            let label = mode.label();
            line.push_str(&format!(
                ",\"wall_ms_{label}\":{},\"mips_{label}\":{}",
                json_f64(wall * 1e3),
                json_f64(*mode_mips)
            ));
        }
        line.push_str(&format!(
            ",\"tmpl_speedup\":{},\"ref_overhead\":{}}}",
            json_f64(tmpl_speedup),
            json_f64(ref_overhead)
        ));
        lines.push(line);
    }
    let doc = format!(
        "{{\"bench\":\"interp_throughput\",\"trials\":{},\"spin_ref_overhead\":{},\"spin_tmpl_speedup\":{},\"results\":[{}]}}\n",
        opts.trials,
        spin_ref_overhead.map_or("null".to_string(), json_f64),
        spin_tmpl_speedup.map_or("null".to_string(), json_f64),
        lines.join(",")
    );
    if let Err(e) = std::fs::write(&opts.out, &doc) {
        eprintln!("interp_throughput: writing {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
    if mismatch {
        std::process::exit(1);
    }
}
