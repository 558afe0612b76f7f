//! End-to-end integration tests spanning the workspace: the paper's core
//! security and performance claims, exercised through the public API.

use time_protection::attacks::harness::{IntraCoreSpec, Scenario};
use time_protection::attacks::{cache, flush_latency, interrupt, kernel_image};
use time_protection::prelude::*;
use tp_sim::color_of_frame;

/// Requirement 2 + §5.3.1: a shared kernel image leaks across coloured
/// domains; cloned kernels close the channel.
#[test]
fn kernel_clone_closes_the_kernel_image_channel() {
    let mk = |prot| IntraCoreSpec {
        platform: Platform::Haswell,
        prot,
        n_symbols: 4,
        samples: 120,
        slice_us: 50.0,
        seed: 0x1111,
    };
    let shared = kernel_image::kernel_image_channel(&mk(kernel_image::coloured_userland_config()))
        .expect("simulation");
    let cloned =
        kernel_image::kernel_image_channel(&mk(ProtectionConfig::protected())).expect("simulation");
    assert!(shared.verdict.leaks, "shared kernel: {}", shared.summary());
    // A single-shot verdict can false-positive right at the M ≈ M0
    // boundary (the campaign's 3-seed majority vote exists to absorb
    // exactly that); the single-seed checks here are the robust ratio
    // plus an absolute cap on any boundary flag — a *material* cloned
    // leak (hundreds of mb) must still fail this suite, not just the
    // campaign golden gate.
    assert!(
        cloned.verdict.m.bits < shared.verdict.m.bits / 5.0,
        "cloning ineffective: shared {} vs cloned {}",
        shared.summary(),
        cloned.summary()
    );
    assert!(
        !cloned.verdict.leaks || cloned.verdict.m.millibits() < 250.0,
        "cloned kernels leak materially: {}",
        cloned.summary()
    );
}

/// Requirement 1: flushing on-core state closes the L1-D channel.
#[test]
fn on_core_flush_closes_l1d() {
    let raw = cache::try_l1d_channel(&IntraCoreSpec::new(Platform::Sabre, Scenario::Raw, 8, 100))
        .expect("sim run failed");
    let prot = cache::try_l1d_channel(&IntraCoreSpec::new(
        Platform::Sabre,
        Scenario::Protected,
        8,
        100,
    ))
    .expect("sim run failed");
    assert!(raw.verdict.leaks);
    assert!(!prot.verdict.leaks, "{}", prot.summary());
}

/// Requirement 4: the flush itself leaks through its latency unless padded.
#[test]
fn padding_closes_the_flush_latency_channel() {
    let mk = |pad| IntraCoreSpec {
        platform: Platform::Sabre,
        prot: flush_latency::flush_channel_config(pad),
        n_symbols: 8,
        samples: 100,
        slice_us: 50.0,
        seed: 0x2222,
    };
    let no_pad = flush_latency::flush_channel(&mk(None), flush_latency::Timing::Offline)
        .expect("simulation");
    let padded = flush_latency::flush_channel(
        &mk(Some(flush_latency::table4_pad_us(Platform::Sabre))),
        flush_latency::Timing::Offline,
    )
    .expect("simulation");
    assert!(no_pad.verdict.leaks, "{}", no_pad.summary());
    assert!(!padded.verdict.leaks, "{}", padded.summary());
}

/// Requirement 5: interrupt partitioning.
#[test]
fn irq_partitioning_closes_the_interrupt_channel() {
    let raw =
        interrupt::try_interrupt_channel(&interrupt::paper_spec(Platform::Haswell, false, 100))
            .expect("sim run failed");
    let part =
        interrupt::try_interrupt_channel(&interrupt::paper_spec(Platform::Haswell, true, 100))
            .expect("sim run failed");
    assert!(raw.verdict.leaks, "{}", raw.summary());
    assert!(!part.verdict.leaks, "{}", part.summary());
}

/// Colour pools are disjoint between domains and all allocations stay
/// within the owning domain's colours.
#[test]
fn colour_partitioning_is_airtight() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let n_colors = Platform::Haswell.config().partition_colors();
    type SeenLog = Rc<RefCell<Vec<(u64, Vec<u64>)>>>;
    let seen: SeenLog = Rc::new(RefCell::new(Vec::new()));
    let mut b =
        SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected()).max_cycles(50_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    for d in [d0, d1] {
        let seen2 = Rc::clone(&seen);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            let (_, frames) = env.map_pages(64).await;
            seen2.borrow_mut().push((env.my_colors().0, frames));
        });
    }
    let _ = b.run();
    let seen = seen.borrow();
    assert_eq!(seen.len(), 2);
    let (c0, f0) = &seen[0];
    let (c1, f1) = &seen[1];
    assert_eq!(c0 & c1, 0, "domain colour masks must be disjoint");
    for f in f0 {
        assert!(c0 & (1 << color_of_frame(*f, n_colors)) != 0);
    }
    for f in f1 {
        assert!(c1 & (1 << color_of_frame(*f, n_colors)) != 0);
    }
}

/// Cross-domain IPC works under full protection (shared user-level state
/// is allowed when the security policy permits it, §6.1).
#[test]
fn cross_domain_ipc_delivers_messages() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = Rc::clone(&got);
    let mut b =
        SystemBuilder::new(Platform::Sabre, ProtectionConfig::protected()).max_cycles(400_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    b.setup(Box::new(|k, _m, tcbs, domains| {
        let ep = k.create_endpoint(domains[0]).unwrap();
        let cap = time_protection::core::Capability {
            obj: time_protection::core::CapObject::Endpoint(ep),
            rights: time_protection::core::Rights::all(),
        };
        k.grant_cap(tcbs[0], cap);
        k.grant_cap(tcbs[1], cap);
    }));
    let mut b = b.open_scheduling();
    b.spawn(d0, 0, 100, async move |env: &mut UserEnv| {
        for i in 0..5 {
            let r = env
                .syscall(Syscall::Call {
                    cap: 0,
                    msg: 10 + i,
                })
                .await
                .unwrap();
            got2.borrow_mut().push(r);
        }
    });
    b.spawn_daemon(d1, 0, 100, async |env: &mut UserEnv| {
        let mut v = env.syscall(Syscall::Recv { cap: 0 }).await.unwrap();
        loop {
            v = env
                .syscall(Syscall::ReplyRecv { cap: 0, msg: v * 2 })
                .await
                .unwrap();
        }
    });
    let _ = b.run();
    assert_eq!(*got.borrow(), vec![20, 22, 24, 26, 28]);
}

/// Determinism: identical seeds give identical simulations.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let o = cache::try_l1d_channel(
            &IntraCoreSpec::new(Platform::Haswell, Scenario::Raw, 4, 50).with_seed(77),
        )
        .expect("sim run failed");
        (o.dataset.outputs().to_vec(), o.verdict.m.bits)
    };
    let (a_out, a_mi) = run();
    let (b_out, b_mi) = run();
    assert_eq!(a_out, b_out, "outputs must be bit-identical across runs");
    assert_eq!(a_mi, b_mi);
}

/// The §4.1 audit holds: no shared kernel data is indexed by private user
/// state, and its size matches the paper.
#[test]
fn shared_kernel_data_audit() {
    use time_protection::core::layout::SharedKernelData;
    assert!(SharedKernelData::audit().is_empty());
    let sd = SharedKernelData::new(tp_sim::PAddr(0), &Platform::Haswell.config());
    let kib = sd.bytes() as f64 / 1024.0;
    assert!((9.0..10.0).contains(&kib));
}

/// Full protection on a time-shared core costs little (Table 8's claim):
/// under a typical workload, well below 15% even with padding.
#[test]
fn protection_overhead_is_modest() {
    use time_protection::workloads::{run_workload, splash2, WorkloadRun};
    let b = splash2::by_name("fft").unwrap();
    let raw = run_workload(
        &b,
        &WorkloadRun::shared(Platform::Haswell, ProtectionConfig::raw(), (1, 2)).with_ops(30_000),
    )
    .expect("simulation");
    let prot = run_workload(
        &b,
        &WorkloadRun::shared(
            Platform::Haswell,
            ProtectionConfig::protected().with_pad_us(58.8),
            (1, 2),
        )
        .with_ops(30_000),
    )
    .expect("simulation");
    let slow = prot.slowdown_vs(raw);
    assert!(
        slow < 0.15,
        "protected+padded overhead {:.1}%",
        slow * 100.0
    );
}
