//! Per-operation costs of single layer calls, timed from outside: the
//! simulator's access path and flushes, the kernel's switch, clone and
//! syscall paths, and one mutual-information estimate. Every traced run
//! makes the same probes, so their costs compare across workloads,
//! commits and machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tp_analysis::{mutual_information, Dataset};
use tp_core::kernel::{Kernel, Syscall};
use tp_core::objects::{CapObject, Capability, Rights};
use tp_core::ProtectionConfig;
use tp_sim::{flush, Asid, BatchOut, ColorSet, Machine, PAddr, Platform, VAddr};

/// Times each probe is repeated; the median repetition is reported.
const REPS: usize = 5;

/// Median over [`REPS`] repetitions of `f`, which returns
/// (elapsed nanoseconds, operations).
fn median_ns_per_op(mut f: impl FnMut() -> (f64, f64)) -> f64 {
    let mut per_op: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[REPS / 2]
}

fn timed(ops: usize, mut f: impl FnMut()) -> (f64, f64) {
    let t0 = Instant::now();
    for _ in 0..ops {
        f();
    }
    (t0.elapsed().as_nanos() as f64, ops as f64)
}

fn machine() -> Machine {
    Machine::new(Platform::Haswell.config(), 1)
}

fn kernel(prot: ProtectionConfig) -> (Machine, Kernel) {
    let cfg = Platform::Haswell.config();
    (
        Machine::new(cfg, 3),
        Kernel::new(cfg, prot, 16_384, u64::MAX / 4),
    )
}

/// ns per scalar data access that hits L1.
fn access_l1_ns() -> f64 {
    let mut m = machine();
    let pa = PAddr(0x1000);
    m.data_access(0, Asid(1), VAddr(pa.0), pa, false, false);
    median_ns_per_op(|| {
        timed(200_000, || {
            black_box(m.data_access(0, Asid(1), VAddr(pa.0), pa, false, false));
        })
    })
}

/// ns per scalar data access in a 64-line round robin that misses L1 and
/// hits L2.
fn access_l2_ns() -> f64 {
    let mut m = machine();
    let stride = m.cfg.l1d.sets() * m.cfg.line;
    let mut i = 0u64;
    median_ns_per_op(|| {
        timed(200_000, || {
            i = (i + 1) % 64;
            let a = 0x10_0000 + i * stride;
            black_box(m.data_access(0, Asid(1), VAddr(a), PAddr(a), false, false));
        })
    })
}

/// ns per line of a 4 KiB `access_batch` sweep.
fn sweep_line_ns() -> f64 {
    let mut m = machine();
    let pas: Vec<PAddr> = (0..64).map(|i| PAddr(0x40_0000 + i * 64)).collect();
    let plan = m.plan_sweep(false, &pas);
    m.access_batch(0, Asid(1), &plan, false, false, &mut BatchOut::default());
    median_ns_per_op(|| {
        let (ns, sweeps) = timed(20_000, || {
            black_box(m.access_batch(0, Asid(1), &plan, false, false, &mut BatchOut::default()));
        });
        (ns, sweeps * pas.len() as f64)
    })
}

/// µs per on-core flush set (L1-D, L1-I, TLBs, branch predictor) after a
/// 4 KiB sweep has dirtied the L1-D.
fn flush_us() -> f64 {
    let mut m = machine();
    let pas: Vec<PAddr> = (0..64).map(|i| PAddr(0x40_0000 + i * 64)).collect();
    let plan = m.plan_sweep(false, &pas);
    median_ns_per_op(|| {
        let mut ns = 0.0;
        for _ in 0..500 {
            m.access_batch(0, Asid(1), &plan, true, false, &mut BatchOut::default());
            let t0 = Instant::now();
            black_box(flush::flush_l1d_arch(&mut m, 0));
            black_box(flush::flush_l1i_arch(&mut m, 0));
            black_box(flush::flush_tlbs(&mut m, 0));
            black_box(flush::flush_branch_predictor(&mut m, 0));
            ns += t0.elapsed().as_nanos() as f64;
        }
        (ns, 500.0)
    }) / 1e3
}

/// (µs per `handle_tick` domain switch, simulated kcycles per switch)
/// between two domains.
fn switch(prot: ProtectionConfig) -> (f64, f64) {
    let (mut m, mut k) = kernel(prot);
    let d0 = k
        .create_domain(ColorSet::range(0, 4), 1024)
        .expect("domain");
    let d1 = k
        .create_domain(ColorSet::range(4, 8), 1024)
        .expect("domain");
    if prot.clone_kernel {
        k.clone_kernel_for_domain(&mut m, 0, d0).expect("clone");
        k.clone_kernel_for_domain(&mut m, 0, d1).expect("clone");
    }
    k.create_thread(d0, 0, 100).expect("thread");
    k.create_thread(d1, 0, 100).expect("thread");
    let ticks = 400;
    let c0 = m.cycles(0);
    let mut ran = 0.0;
    let us = median_ns_per_op(|| {
        let r = timed(ticks, || {
            black_box(k.handle_tick(&mut m, 0));
        });
        ran += r.1;
        r
    }) / 1e3;
    (us, (m.cycles(0) - c0) as f64 / ran / 1e3)
}

/// µs per kernel clone plus destroy.
fn clone_us() -> f64 {
    let (mut m, mut k) = kernel(ProtectionConfig::protected());
    let d = k
        .create_domain(ColorSet::range(0, 4), 4096)
        .expect("domain");
    median_ns_per_op(|| {
        timed(100, || {
            let img = k.clone_kernel_for_domain(&mut m, 0, d).expect("clone");
            k.kernel_destroy(&mut m, 0, img).expect("destroy");
        })
    }) / 1e3
}

/// ns per `Signal` syscall.
fn syscall_ns() -> f64 {
    let (mut m, mut k) = kernel(ProtectionConfig::raw());
    let t = k.create_thread(k.boot_domain, 0, 100).expect("thread");
    let n = k.create_notification(k.boot_domain).expect("notification");
    let cap = k.grant_cap(
        t,
        Capability {
            obj: CapObject::Notification(n),
            rights: Rights::all(),
        },
    );
    k.cores[0].cur = Some(t);
    median_ns_per_op(|| {
        timed(50_000, || {
            black_box(k.syscall(&mut m, 0, t, Syscall::Signal { cap }));
        })
    })
}

/// An 8-symbol, 128-sample dataset, the size of a campaign dataset at
/// `TP_SAMPLES=0.25`.
fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(5);
    let mut d = Dataset::new(8);
    for _ in 0..128 {
        let s = rng.gen_range(0..8);
        d.push(s, rng.gen_range(0.0..100.0) + s as f64 * 10.0);
    }
    d
}

/// µs per `mutual_information` on [`dataset`].
fn mi_us() -> f64 {
    let d = dataset();
    median_ns_per_op(|| {
        timed(500, || {
            black_box(mutual_information(&d));
        })
    }) / 1e3
}

/// Every probe, by per-layer metric name.
#[must_use]
pub fn run() -> Vec<(&'static str, f64)> {
    let (raw_us, _) = switch(ProtectionConfig::raw());
    let (prot_us, prot_kcyc) = switch(ProtectionConfig::protected());
    vec![
        ("sim.access_ns", access_l1_ns()),
        ("sim.access_l2_ns", access_l2_ns()),
        ("sim.sweep_line_ns", sweep_line_ns()),
        ("sim.flush_us", flush_us()),
        ("kernel.switch_raw_us", raw_us),
        ("kernel.switch_protected_us", prot_us),
        ("kernel.switch_protected_kcyc", prot_kcyc),
        ("kernel.clone_us", clone_us()),
        ("kernel.syscall_ns", syscall_ns()),
        ("analysis.mi_us", mi_us()),
    ]
}
