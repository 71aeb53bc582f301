//! Criterion benches for the DESIGN.md ablations. The *primary* number is
//! guest cycles per iteration — fully deterministic, via the vendored
//! stub's custom-measurement API reading the harness's per-thread guest
//! clock — with host wall time printed as a secondary. These benches track
//! the *relative* cost of the design choices and keep the whole pipeline
//! exercised under `cargo bench`.
//!
//! Every bench goes through the declarative [`RunSpec`] path — the same
//! spec the table/figure binaries would hash and cache — so the ablations
//! measure exactly what the experiments run.

use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig};
use cheriabi::harness::{execute_spec, guest_cycles_consumed, RunSpec};
use cheriabi::spec::ProgramSpec;
use criterion::{criterion_group, criterion_main, Criterion, Measurement};

/// Guest cycles retired by the cases a bench iteration executes, read from
/// the harness's per-thread deterministic clock. Identical on every run of
/// an unchanged workload, unlike wall time.
struct GuestCycles;

impl Measurement for GuestCycles {
    type Intermediate = u64;
    type Value = u64;

    fn start(&self) -> u64 {
        guest_cycles_consumed()
    }

    fn end(&self, i: u64) -> u64 {
        guest_cycles_consumed().wrapping_sub(i)
    }

    fn add(&self, v1: &u64, v2: &u64) -> u64 {
        v1.wrapping_add(*v2)
    }

    fn zero(&self) -> u64 {
        0
    }

    fn to_f64(&self, value: &u64) -> f64 {
        *value as f64
    }

    fn unit(&self) -> &'static str {
        "guest-cycles"
    }
}

/// D2 ablation: CLC immediate reach (plus the mips64 baseline and the asan
/// software baseline) on the initdb macro-benchmark.
fn bench_initdb_configs(c: &mut Criterion<GuestCycles>) {
    let registry = cheri_bench::registry();
    let mut g = c.benchmark_group("initdb");
    g.sample_size(10);
    for (name, opts, abi, asan) in [
        ("mips64", CodegenOpts::mips64(), AbiMode::Mips64, false),
        ("cheriabi", CodegenOpts::purecap(), AbiMode::CheriAbi, false),
        (
            "cheriabi-smallclc",
            CodegenOpts::purecap_small_clc(),
            AbiMode::CheriAbi,
            false,
        ),
        (
            "mips64-asan",
            CodegenOpts::mips64_asan(),
            AbiMode::Mips64,
            true,
        ),
    ] {
        let spec = RunSpec::new(
            format!("ablation-initdb-{name}"),
            ProgramSpec::Initdb { records: 120 },
            opts,
            abi,
        )
        .with_budget(2_000_000_000)
        .with_asan(asan);
        g.bench_function(name, |b| {
            b.iter(|| execute_spec(&registry, &spec));
        });
    }
    g.finish();
}

/// D1 ablation: 128-bit compressed vs 256-bit exact capabilities on a
/// pointer-heavy workload (the wider format doubles pointer footprint
/// again).
fn bench_cap_format(c: &mut Criterion<GuestCycles>) {
    let registry = cheri_bench::registry();
    let mut g = c.benchmark_group("capfmt-xalancbmk");
    g.sample_size(10);
    for (name, opts, fmt) in [
        ("c128", CodegenOpts::purecap(), cheriabi::CapFormat::C128),
        (
            "c256",
            CodegenOpts::purecap_c256(),
            cheriabi::CapFormat::C256,
        ),
    ] {
        let spec = RunSpec::new(
            format!("ablation-capfmt-{name}"),
            ProgramSpec::Workload {
                name: "spec2006-xalancbmk".to_string(),
            },
            opts,
            AbiMode::CheriAbi,
        )
        .with_seed(7)
        .with_budget(2_000_000_000)
        .with_config(KernelConfig {
            cap_fmt: fmt,
            ..KernelConfig::default()
        });
        g.bench_function(name, |b| {
            b.iter(|| execute_spec(&registry, &spec));
        });
    }
    g.finish();
}

/// Table 3 sampling: one representative BOdiagsuite case under all three
/// detector configurations.
fn bench_bodiag_detectors(c: &mut Criterion<GuestCycles>) {
    use bodiagsuite::{case_spec, AccessDir, CaseCfg, Config, Idiom, Region, Variant};
    let registry = cheri_bench::registry();
    let cfg = CaseCfg {
        id: 0,
        region: Region::Heap,
        access: AccessDir::Write,
        idiom: Idiom::LoopInduction,
        len: 64,
    };
    let mut g = c.benchmark_group("bodiag-detectors");
    g.sample_size(10);
    for config in Config::ALL {
        let spec = case_spec(&cfg, Variant::Min, config);
        g.bench_function(config.label(), |b| {
            b.iter(|| execute_spec(&registry, &spec));
        });
    }
    g.finish();
}

/// Execution-tier ablation: the same spin workload under the template
/// tier, the TLB step loop with templates held off (`--exec-mode
/// superblock`) and the reference interpreter (`--exec-mode single`). Guest
/// cycles per iteration must be *identical* across the three rows — the
/// equivalence contract, visible right in the bench output — while the
/// wall-time secondary shows the host-speed gap.
fn bench_exec_tiers(c: &mut Criterion<GuestCycles>) {
    use cheriabi::harness::ExecMode;
    let registry = cheri_bench::registry();
    let mut g = c.benchmark_group("tier-spin");
    g.sample_size(10);
    for (name, mode) in [
        ("template", ExecMode::Template),
        ("fast", ExecMode::Superblock),
        ("reference", ExecMode::SingleStep),
    ] {
        let spec = RunSpec::new(
            format!("ablation-tier-{name}"),
            ProgramSpec::Spin { iters: 200_000 },
            CodegenOpts::mips64(),
            AbiMode::Mips64,
        )
        .with_budget(2_000_000_000)
        .with_exec_mode(mode);
        g.bench_function(name, |b| {
            b.iter(|| execute_spec(&registry, &spec));
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().with_measurement(GuestCycles);
    targets = bench_initdb_configs,
    bench_cap_format,
    bench_bodiag_detectors,
    bench_exec_tiers
);
criterion_main!(benches);
