//! Replay-equivalence test suite for the commit-log kernel gateway.
//!
//! Two contracts are pinned here:
//!
//! 1. **Replay hash property** (proptest): for random interleaved syscall
//!    sequences on every registered platform, reducing `(genesis,
//!    commits)` reproduces the original kernel `state_hash()` bit for
//!    bit, and snapshot-then-resume reaches the same final hash as the
//!    straight-through run.
//! 2. **Observer effect regression**: enabling commit logging must not
//!    change a single simulated timestamp — the engine's `now()` stream
//!    is byte-identical with logging on and off.

use proptest::prelude::*;
use tp_core::replay::{self, Booted, Genesis, Snapshot};
use tp_sim::Platform;

proptest! {
    /// `state_hash(replay(log)) == state_hash(original)` for random
    /// scripted syscall interleavings. Each case exercises all four
    /// platforms, so 64 cases = 256 recorded-and-replayed sequences.
    #[test]
    fn replay_reproduces_state_hash_on_all_platforms(
        ops in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>()), 1..48),
    ) {
        for platform in Platform::ALL {
            let genesis = Genesis::new(platform);
            let Booted { mut machine, mut kernel, driver } = genesis.boot();
            kernel.log.enable();
            for &(x, y, z) in &ops {
                driver.step(&mut machine, &mut kernel, x, y, z);
            }
            let original = kernel.state_hash();
            let commits = kernel.log.take();
            let (rm, rk) = replay::replay(&genesis, &commits);
            prop_assert_eq!(
                rk.state_hash(), original,
                "{}: replay diverged over {} commits", platform.key(), commits.len()
            );
            prop_assert_eq!(
                rm.cycles(0), machine.cycles(0),
                "{}: machine time diverged", platform.key()
            );
        }
    }

    /// Snapshot at an arbitrary cut point, resume from the restored
    /// state, and finish the script: the final hash matches the
    /// straight-through run on every platform.
    #[test]
    fn snapshot_resume_matches_straight_through(
        ops in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>()), 2..40),
        cut in any::<usize>(),
    ) {
        let cut = cut % ops.len();
        for platform in Platform::ALL {
            let genesis = Genesis::new(platform);
            let Booted { mut machine, mut kernel, driver } = genesis.boot();
            kernel.log.enable();
            let mut snap: Option<Snapshot> = None;
            for (i, &(x, y, z)) in ops.iter().enumerate() {
                driver.step(&mut machine, &mut kernel, x, y, z);
                if i == cut {
                    snap = Some(Snapshot::take(&machine, &kernel, kernel.log.len()));
                }
            }
            let straight = kernel.state_hash();

            let (mut m2, mut k2) = snap.expect("cut < ops.len()").resume();
            for &(x, y, z) in &ops[cut + 1..] {
                driver.step(&mut m2, &mut k2, x, y, z);
            }
            prop_assert_eq!(
                k2.state_hash(), straight,
                "{}: resume from cut {} diverged", platform.key(), cut
            );
            prop_assert_eq!(m2.cycles(0), machine.cycles(0), "{}", platform.key());
        }
    }
}

/// Commit logging is a pure observer: running the same two-domain engine
/// scenario with `record_commits` on and off yields byte-identical
/// simulated timestamp streams and final cycle counters — while the
/// logged run does produce a non-empty audit trail.
#[test]
fn commit_logging_does_not_perturb_simulated_time() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use tp_core::{ProtectionConfig, SystemBuilder, UserEnv};

    for platform in [Platform::Haswell, Platform::Sabre] {
        let run = |record: bool| {
            let stamps: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            let out = Rc::clone(&stamps);
            let mut b = SystemBuilder::new(platform, ProtectionConfig::protected())
                .seed(0x7E57)
                .slice_us(40.0)
                .max_cycles(30_000_000)
                .record_commits(record);
            let d0 = b.domain(None);
            let d1 = b.domain(None);
            b.spawn(d0, 0, 100, async move |env: &mut UserEnv| {
                let (va, _) = env.map_pages(2).await;
                for i in 0..40 {
                    let t = env.now().await;
                    out.borrow_mut().push(t);
                    env.load(tp_sim::VAddr(va.0 + (i % 64) * 64)).await;
                    env.compute(500).await;
                    if i % 8 == 0 {
                        let _ = env.wait_preempt().await;
                    }
                }
            });
            b.spawn_daemon(d1, 0, 100, async |env: &mut UserEnv| loop {
                env.compute(1_000).await;
            });
            let report = b.run();
            let v = stamps.take();
            (v, report)
        };

        let (stamps_off, report_off) = run(false);
        let (stamps_on, report_on) = run(true);
        assert!(!stamps_off.is_empty(), "{}: no samples", platform.key());
        assert_eq!(
            stamps_off,
            stamps_on,
            "{}: now() stream changed under logging",
            platform.key()
        );
        assert_eq!(
            report_off.cycles,
            report_on.cycles,
            "{}: final cycles changed under logging",
            platform.key()
        );
        assert!(
            report_off.commits.is_empty(),
            "{}: unlogged run leaked commits",
            platform.key()
        );
        assert!(
            !report_on.commits.is_empty(),
            "{}: logged run recorded nothing",
            platform.key()
        );
    }
}

/// A Table 5-style IPC setup drives the kernel directly: every core in
/// open scheduling, the server current for its `Recv`, then the client
/// current for the round trips. Its setup writes go through logged
/// gateways, so the recording replays to the same state hash; replaying
/// its syscalls alone does not.
#[test]
fn table5_style_ipc_setup_replays_to_the_same_state_hash() {
    use tp_core::{Commit, EngineMode, ScriptDriver, SysReturn, Syscall};

    let cap = ScriptDriver::EP_CAP;
    for platform in Platform::ALL {
        let genesis = Genesis::new(platform);
        let Booted {
            mut machine,
            mut kernel,
            driver,
        } = genesis.boot();
        // One thread of each domain, so each round trip crosses domains.
        let (client, server) = (driver.threads[0], driver.threads[2]);
        kernel.log.enable();
        for core in 0..kernel.cores.len() {
            kernel.set_mode(core, EngineMode::Open);
        }
        kernel.set_current(0, server);
        let out = kernel.syscall(&mut machine, 0, server, Syscall::Recv { cap });
        assert_eq!(out.ret, SysReturn::Blocked);
        kernel.set_current(0, client);
        for _ in 0..20 {
            let out = kernel.syscall(&mut machine, 0, client, Syscall::Call { cap, msg: 1 });
            assert_eq!(out.ret, SysReturn::Blocked);
            assert_eq!(kernel.cores[0].cur, Some(server));
            let out = kernel.syscall(&mut machine, 0, server, Syscall::ReplyRecv { cap, msg: 2 });
            assert_eq!(out.ret, SysReturn::Blocked);
            assert_eq!(kernel.cores[0].cur, Some(client));
        }
        let original = kernel.state_hash();
        let commits = kernel.log.take();
        let (rm, rk) = replay::replay(&genesis, &commits);
        assert_eq!(rk.state_hash(), original, "{}", platform.key());
        assert_eq!(rm.cycles(0), machine.cycles(0), "{}", platform.key());

        let syscalls: Vec<Commit> = commits
            .into_iter()
            .filter(|c| matches!(c, Commit::Syscall { .. }))
            .collect();
        let (_, without_setup) = replay::replay(&genesis, &syscalls);
        assert_ne!(without_setup.state_hash(), original, "{}", platform.key());
    }
}
