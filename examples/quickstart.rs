//! Quickstart: partition a system into two coloured security domains with
//! cloned kernels — the §3.3 "initial process" workflow — and verify the
//! partition holds.
//!
//! Run with: `cargo run --release --example quickstart`

use time_protection::prelude::*;
use tp_sim::color_of_frame;

fn main() {
    // The initial user process separates free memory into coloured pools,
    // clones a kernel for each partition, and starts a child in each.
    let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
        .slice_us(200.0)
        .max_cycles(100_000_000);
    let alice = b.domain(None); // colours assigned automatically: 0..4
    let bob = b.domain(None); // colours 4..8

    let n_colors = Platform::Haswell.config().partition_colors();

    b.spawn(alice, 0, 100, async move |env: &mut UserEnv| {
        let (va, frames) = env.map_pages(16).await;
        // Every frame this domain can ever get is one of its own colours.
        for f in &frames {
            assert!(env.my_colors().contains(color_of_frame(*f, n_colors)));
        }
        // Do some work: the timing of these accesses can only depend on
        // this domain's own activity.
        let mut cold = 0;
        let mut warm = 0;
        for i in 0..1024u64 {
            cold += env.load(VAddr(va.0 + (i % 1024) * 64)).await;
        }
        for i in 0..1024u64 {
            warm += env.load(VAddr(va.0 + (i % 1024) * 64)).await;
        }
        println!("[alice] cold pass {cold} cycles, warm pass {warm} cycles");
    });

    b.spawn(bob, 0, 100, async move |env: &mut UserEnv| {
        let (_, frames) = env.map_pages(16).await;
        for f in &frames {
            assert!(env.my_colors().contains(color_of_frame(*f, n_colors)));
        }
        println!(
            "[bob]   my colours: {:?}",
            env.my_colors().iter().collect::<Vec<_>>()
        );
    });

    let report = b.run();
    println!(
        "system ran {} cycles; {} domain switches, {} cycles spent flushing on-core state",
        report.cycles[0], report.stats.domain_switches, report.stats.flush_cycles
    );
    println!("kernel clones performed at boot: {}", report.stats.clones);
    assert_eq!(report.stats.clones, 2, "one cloned kernel per domain");
}
