//! Workspace-wiring smoke test: every `prelude` re-export resolves and is
//! usable, and the facade's module re-exports point at the right crates.
//! (The `src/lib.rs` quick-start doctest is the other half of this check
//! and runs as part of `cargo test` automatically.)

use time_protection::prelude::*;

/// Every prelude item is nameable and constructible.
#[test]
fn prelude_reexports_resolve() {
    // tp_sim re-exports.
    let _: Platform = Platform::Haswell;
    let _: Platform = Platform::Sabre;
    let colors: ColorSet = ColorSet::range(0, 4);
    assert_eq!(colors.count(), 4);
    let va: VAddr = VAddr(0x1000);
    assert_eq!(va.0, 0x1000);

    // tp_core re-exports.
    let raw: ProtectionConfig = ProtectionConfig::raw();
    let prot: ProtectionConfig = ProtectionConfig::protected();
    assert!(!raw.clone_kernel && prot.clone_kernel);
    let _: FlushMode = prot.flush;
    let _: Syscall = Syscall::Yield;
    let _: fn(Platform, ProtectionConfig) -> SystemBuilder = SystemBuilder::new;

    // tp_analysis re-exports.
    let mut d: Dataset = Dataset::new(2);
    for i in 0..60usize {
        d.push(i % 2, i as f64);
    }
    let verdict = leakage_test(&d, 42);
    assert!(verdict.m.bits >= 0.0);
}

/// The facade's module aliases point at the member crates.
#[test]
fn module_reexports_point_at_member_crates() {
    // Same types reachable through both paths.
    let a = time_protection::sim::Platform::Haswell;
    let b = tp_sim::Platform::Haswell;
    assert_eq!(a.config().cores, b.config().cores);

    assert_eq!(
        time_protection::core::ProtectionConfig::protected().clone_kernel,
        tp_core::ProtectionConfig::protected().clone_kernel
    );
    assert!(time_protection::analysis::Dataset::new(2).is_empty());
    assert!(!time_protection::workloads::all_benchmarks().is_empty());
    // tp_attacks: scenario table is wired.
    let spec = time_protection::attacks::harness::IntraCoreSpec::new(
        Platform::Haswell,
        time_protection::attacks::harness::Scenario::Raw,
        2,
        40,
    );
    assert_eq!(spec.n_symbols, 2);
}

/// A minimal two-domain protected system runs end to end through the
/// prelude API (cut-down version of the crate doctest).
#[test]
fn minimal_protected_system_runs() {
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
        .slice_us(50.0)
        .max_cycles(5_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    b.spawn(d0, 0, 100, async |env: &mut UserEnv| {
        let (va, _) = env.map_pages(1).await;
        env.load(va).await;
    });
    b.spawn(d1, 0, 100, async |env: &mut UserEnv| {
        env.compute(100).await;
    });
    let report = b.run();
    assert_eq!(report.stats.clones, 2, "one cloned kernel per domain");
}
