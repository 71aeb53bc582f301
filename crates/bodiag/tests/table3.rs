//! Runs the complete BOdiagsuite (291 cases × 4 variants × 3 configs) and
//! checks the Table 3 shape.

use bodiagsuite::{all_cases, registry, run_table3, table3_specs, Config};
use cheriabi::harness::execute_spec;

#[test]
fn table3_shape_holds() {
    let cases = all_cases();
    let table = run_table3(&cases);
    println!("{table}");
    assert!(
        table.false_positives.is_empty(),
        "ok-variants must pass: {:?}",
        table.false_positives
    );
    let get = |c: Config| {
        table
            .detected
            .iter()
            .find(|(cc, _)| *cc == c)
            .map(|(_, v)| *v)
            .expect("config present")
    };
    let m = get(Config::Mips64);
    let ch = get(Config::CheriAbi);
    let asan = get(Config::Asan);

    // CheriABI: misses exactly the 12 intra-object cases at min, the 2
    // deep-tail cases at med, and nothing at large (paper: 279/289/291).
    assert_eq!(ch, [279, 289, 291], "cheriabi");
    // ASan: additionally blind to the 3 global-adjacent cases
    // (paper: 276/286/286).
    assert_eq!(asan[0], 276, "asan min");
    assert_eq!(asan[1], 286, "asan med");
    assert!(asan[2] >= 286, "asan large");
    // mips64 catches (almost) nothing until overflows reach unmapped
    // memory (paper: 4/8/175).
    assert!(m[0] <= 8, "mips64 min: {}", m[0]);
    assert!(m[1] <= 16, "mips64 med: {}", m[1]);
    assert!(m[2] >= 120 && m[2] <= 220, "mips64 large: {}", m[2]);
    // Ordering: CheriABI strictly dominates ASan, which dominates mips64.
    for i in 0..3 {
        assert!(ch[i] >= asan[i], "cheriabi >= asan at {i}");
        assert!(asan[i] >= m[i], "asan >= mips64 at {i}");
    }
}

/// Physical memory is demand-allocated, so its configured size must be
/// invisible to the guest: the same cases under the default 64 MiB and
/// under the largest addressable memory (2^32 frames) retire the same
/// instructions, hit the same cache sets and print the same console.
#[test]
fn physical_memory_capacity_does_not_change_guest_results() {
    let registry = registry();
    let specs = table3_specs(&all_cases());
    for spec in specs.iter().step_by(499) {
        let base = execute_spec(&registry, spec);
        let mut big = spec.clone();
        big.config.phys_frames = 1 << 32;
        let huge = execute_spec(&registry, &big);
        assert_eq!(huge.outcome, base.outcome, "{}", spec.name);
        assert_eq!(huge.console, base.console, "{}", spec.name);
        assert_eq!(huge.metrics, base.metrics, "{}", spec.name);
    }
}
