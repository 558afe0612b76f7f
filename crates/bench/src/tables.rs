//! Tables 1, 2, 5, 6 and 7: platform inventory, flush costs, IPC
//! microbenchmarks, domain-switch costs and kernel clone/destroy costs.
//!
//! These experiments run directly against `Machine` + `Kernel` (no
//! concurrent user programs needed), which makes them exactly repeatable.

use crate::util::Table;
use tp_core::kernel::{Kernel, SysReturn, Syscall};
use tp_core::{CapObject, Capability, ProtectionConfig, Rights};
use tp_sim::flush as hwflush;
use tp_sim::{Asid, ColorSet, Machine, PAddr, Platform, VAddr, FRAME_SIZE};

/// Format a cache size in KiB below one MiB, MiB above.
fn fmt_cache(size: u64, ways: u32) -> String {
    if size >= 1024 * 1024 {
        format!("{} MiB, {ways}-way", size / 1024 / 1024)
    } else {
        format!("{} KiB, {ways}-way", size / 1024)
    }
}

/// Table 1: the hardware platforms — one column per registry entry.
#[must_use]
pub fn table1() -> String {
    let cfgs: Vec<_> = Platform::ALL.iter().map(|p| p.config()).collect();
    let mut header = vec!["System"];
    header.extend(Platform::ALL.iter().map(|p| p.name()));
    let mut t = Table::new(&header);
    let mut row = |name: &str, cell: &dyn Fn(&tp_sim::PlatformConfig) -> String| {
        let mut cells = vec![name.to_string()];
        cells.extend(cfgs.iter().map(cell));
        t.row(&cells);
    };
    row("Cores", &|c| format!("{}", c.cores));
    row("Clock", &|c| {
        format!("{:.1} GHz", c.freq_mhz as f64 / 1000.0)
    });
    row("Cache line size", &|c| format!("{} B", c.line));
    row("L1-D cache", &|c| fmt_cache(c.l1d.size, c.l1d.ways));
    row("L1-I cache", &|c| fmt_cache(c.l1i.size, c.l1i.ways));
    row("L2 cache", &|c| fmt_cache(c.l2.size, c.l2.ways));
    row("L3 cache", &|c| {
        c.llc.map_or("N/A".into(), |l| fmt_cache(l.size, l.ways))
    });
    row("I-TLB", &|c| {
        format!("{}, {}-way", c.itlb.entries, c.itlb.ways)
    });
    row("D-TLB", &|c| {
        format!("{}, {}-way", c.dtlb.entries, c.dtlb.ways)
    });
    row("L2-TLB", &|c| {
        format!("{}, {}-way", c.stlb.entries, c.stlb.ways)
    });
    row("Page colours (L2)", &|c| {
        format!("{}", c.partition_colors())
    });
    row("Page colours (LLC)", &|c| format!("{}", c.llc_colors()));
    format!("Table 1: Hardware platforms.\n\n{}", t.render())
}

fn dirty_buffer(m: &mut Machine, core: usize, base: u64, bytes: u64) {
    let line = m.cfg.line;
    for i in 0..bytes / line {
        let pa = PAddr(base + i * line);
        m.data_access(core, Asid(500), VAddr(pa.0), pa, true, false);
    }
}

fn pass_time(m: &mut Machine, core: usize, base: u64, bytes: u64) -> u64 {
    let line = m.cfg.line;
    let t0 = m.cycles(core);
    for i in 0..bytes / line {
        let pa = PAddr(base + i * line);
        m.data_access(core, Asid(500), VAddr(pa.0), pa, false, false);
    }
    m.cycles(core) - t0
}

/// Table 2: worst-case cost of cache flushes (µs): direct (the flush
/// itself, all lines dirty) and indirect (one-off slowdown of an
/// application whose working set is the size of the flushed cache).
#[must_use]
pub fn table2() -> String {
    let mut header: Vec<String> = vec!["Cache".into()];
    for p in Platform::ALL {
        let s = p.short_name();
        header.extend([format!("{s} dir"), format!("{s} ind"), format!("{s} total")]);
    }
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut cells_l1 = Vec::new();
    let mut cells_full = Vec::new();
    for platform in Platform::ALL {
        let cfg = platform.config();
        let x86 = cfg.llc.is_some();
        let app_base = 0x400_0000u64;

        // --- L1-only flush ---
        let mut m = Machine::new(cfg, 7);
        // Application working set = L1 size, warmed.
        dirty_buffer(&mut m, 0, app_base, cfg.l1d.size);
        let warm = pass_time(&mut m, 0, app_base, cfg.l1d.size);
        // Worst case: every L1-D line dirty.
        dirty_buffer(&mut m, 0, app_base, cfg.l1d.size);
        let t0 = m.cycles(0);
        if x86 {
            hwflush::manual_flush_l1d(&mut m, 0, PAddr(0x10_0000));
            hwflush::manual_flush_l1i(&mut m, 0, PAddr(0x20_0000));
        } else {
            hwflush::flush_l1d_arch(&mut m, 0);
            hwflush::flush_l1i_arch(&mut m, 0);
        }
        let direct = m.cycles(0) - t0;
        let cold = pass_time(&mut m, 0, app_base, cfg.l1d.size);
        let indirect = cold.saturating_sub(warm);
        cells_l1.push((cfg.cycles_to_us(direct), cfg.cycles_to_us(indirect)));

        // --- Full hierarchy flush ---
        let mut m = Machine::new(cfg, 7);
        let hier = cfg.l2.size + cfg.llc.map_or(0, |l| l.size);
        dirty_buffer(&mut m, 0, app_base, hier.min(8 * 1024 * 1024));
        let warm = pass_time(&mut m, 0, app_base, hier.min(8 * 1024 * 1024));
        dirty_buffer(&mut m, 0, app_base, hier.min(8 * 1024 * 1024));
        let t0 = m.cycles(0);
        if x86 {
            hwflush::wbinvd(&mut m, 0);
        } else {
            hwflush::arm_full_flush(&mut m, 0);
        }
        let direct = m.cycles(0) - t0;
        let cold = pass_time(&mut m, 0, app_base, hier.min(8 * 1024 * 1024));
        let indirect = cold.saturating_sub(warm);
        cells_full.push((cfg.cycles_to_us(direct), cfg.cycles_to_us(indirect)));
    }
    let f = |x: f64| format!("{x:.0}");
    for (name, cells) in [("L1 only", &cells_l1), ("Full flush", &cells_full)] {
        let mut row = vec![name.to_string()];
        for &(dir, ind) in cells.iter() {
            row.extend([f(dir), f(ind), f(dir + ind)]);
        }
        t.row(&row);
    }
    format!(
        "Table 2: Worst-case cost of cache flushes (µs).\n\n{}",
        t.render()
    )
}

/// One IPC configuration of Table 5.
fn ipc_cycles(platform: Platform, prot: ProtectionConfig, cross_domain: bool) -> f64 {
    let cfg = platform.config();
    let mut m = Machine::new(cfg, 21);
    let mut k = Kernel::new(cfg, prot, 16_384, u64::MAX / 4);
    let n = k.cfg.partition_colors();
    let d0 = k
        .create_domain(ColorSet::range(0, n / 2), 2048)
        .expect("domain");
    let d1 = if cross_domain {
        k.create_domain(ColorSet::range(n / 2, n), 2048)
            .expect("domain")
    } else {
        d0
    };
    if k.prot.clone_kernel {
        k.clone_kernel_for_domain(&mut m, 0, d0).expect("clone");
        if cross_domain {
            k.clone_kernel_for_domain(&mut m, 0, d1).expect("clone");
        }
    }
    let client = k.create_thread(d0, 0, 100).expect("client");
    let server = k.create_thread(d1, 0, 100).expect("server");
    let ep = k.create_endpoint(d0).expect("ep");
    let cap = Capability {
        obj: CapObject::Endpoint(ep),
        rights: Rights::all(),
    };
    let ccap = k.grant_cap(client, cap);
    let scap = k.grant_cap(server, cap);
    // Open scheduling: IPC performs the direct switch.
    for core in 0..k.cores.len() {
        k.set_mode(core, tp_core::EngineMode::Open);
    }
    k.set_current(0, server);
    let out = k.syscall(&mut m, 0, server, Syscall::Recv { cap: scap });
    assert_eq!(out.ret, SysReturn::Blocked);
    k.set_current(0, client);

    let roundtrip = |k: &mut Kernel, m: &mut Machine| {
        let out = k.syscall(m, 0, client, Syscall::Call { cap: ccap, msg: 1 });
        assert_eq!(out.ret, SysReturn::Blocked);
        assert_eq!(k.cores[0].cur, Some(server));
        let out = k.syscall(m, 0, server, Syscall::ReplyRecv { cap: scap, msg: 2 });
        assert_eq!(out.ret, SysReturn::Blocked);
        assert_eq!(k.cores[0].cur, Some(client));
    };
    // Warm-up.
    for _ in 0..300 {
        roundtrip(&mut k, &mut m);
    }
    let iters = 2_000u64;
    let t0 = m.cycles(0);
    for _ in 0..iters {
        roundtrip(&mut k, &mut m);
    }
    // One-way IPC cost: half a round trip.
    (m.cycles(0) - t0) as f64 / iters as f64 / 2.0
}

/// Table 5: cross-address-space IPC microbenchmark.
#[must_use]
pub fn table5() -> String {
    let mut header: Vec<String> = vec!["Version".into()];
    for p in Platform::ALL {
        let s = p.short_name();
        header.extend([format!("{s} cycles"), format!("{s} slowd.")]);
    }
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut results: Vec<Vec<f64>> = Vec::new();
    for platform in Platform::ALL {
        let original = ipc_cycles(platform, ProtectionConfig::raw(), false);
        let ready = ipc_cycles(platform, ProtectionConfig::colour_ready(), false);
        let intra = ipc_cycles(platform, ProtectionConfig::protected(), false);
        let inter = ipc_cycles(platform, ProtectionConfig::protected(), true);
        results.push(vec![original, ready, intra, inter]);
    }
    let names = ["original", "colour-ready", "intra-colour", "inter-colour"];
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![(*name).to_string()];
        for per_platform in &results {
            let cycles = per_platform[i];
            let slow = (cycles / per_platform[0] - 1.0) * 100.0;
            row.push(format!("{cycles:.0}"));
            row.push(if i == 0 {
                "-".into()
            } else {
                format!("{slow:.0}%")
            });
        }
        t.row(&row);
    }
    format!(
        "Table 5: IPC microbenchmark performance and slowdown.\n\n{}",
        t.render()
    )
}

/// The receiver workloads of Table 6: pollute the caches like the §5.3.2
/// attackers before the switch is measured.
fn table6_workload(m: &mut Machine, cfg: &tp_sim::PlatformConfig, which: &str) {
    let base = 0x800_0000u64;
    match which {
        "Idle" => {}
        "L1-D" => dirty_buffer(m, 0, base, cfg.l1d.size),
        "L1-I" => {
            for i in 0..cfg.l1i.lines() {
                let pa = PAddr(base + i * cfg.line);
                m.insn_fetch(0, Asid(500), VAddr(pa.0), pa, false);
            }
        }
        "L2" => dirty_buffer(m, 0, base, cfg.l2.size),
        "L3" => dirty_buffer(m, 0, base, cfg.llc.map_or(cfg.l2.size, |l| l.size / 4)),
        _ => unreachable!(),
    }
}

/// Table 6: absolute cost (µs, no padding) of switching away from a domain
/// running various receivers.
#[must_use]
pub fn table6() -> String {
    let mut t = Table::new(&["Platf.", "Mode", "Idle", "L1-D", "L1-I", "L2", "L3"]);
    for platform in Platform::ALL {
        let cfg = platform.config();
        for (mode_name, prot) in [
            ("Raw", ProtectionConfig::raw()),
            ("Full flush", ProtectionConfig::full_flush()),
            ("Protected", ProtectionConfig::protected()),
        ] {
            let mut cells = vec![platform.short_name().to_string(), mode_name.to_string()];
            for wl in ["Idle", "L1-D", "L1-I", "L2", "L3"] {
                if wl == "L3" && cfg.llc.is_none() {
                    cells.push("N/A".into());
                    continue;
                }
                let mut m = Machine::new(cfg, 33);
                let mut k = Kernel::new(cfg, prot, 16_384, u64::MAX / 4);
                let n = k.cfg.partition_colors();
                let d0 = k
                    .create_domain(ColorSet::range(0, n / 2), 2048)
                    .expect("d0");
                let d1 = k
                    .create_domain(ColorSet::range(n / 2, n), 2048)
                    .expect("d1");
                let (img0, img1) = if prot.clone_kernel {
                    (
                        k.clone_kernel_for_domain(&mut m, 0, d0).expect("clone"),
                        k.clone_kernel_for_domain(&mut m, 0, d1).expect("clone"),
                    )
                } else {
                    (k.boot_image, k.boot_image)
                };
                k.set_current_image(0, img0);
                // Average over runs with the receiver state rebuilt,
                // scaled by TP_SAMPLES like every other sample count (the
                // switch cost is nearly deterministic, so a handful of
                // runs already averages the jitter away).
                let runs = ((20.0 * crate::util::effort()).ceil() as u64).max(4);
                let mut total = 0u64;
                for r in 0..runs {
                    table6_workload(&mut m, &cfg, wl);
                    let to = if r % 2 == 0 { img1 } else { img0 };
                    total += k.measure_switch_cost(&mut m, 0, to);
                }
                let us = cfg.cycles_to_us(total / runs);
                cells.push(format!("{us:.2}"));
            }
            t.row(&cells);
        }
    }
    format!(
        "Table 6: Absolute cost (µs) with no padding of switching away from\na domain running various receivers.\n\n{}",
        t.render()
    )
}

/// A modelled monolithic-kernel `fork+exec`: copy-on-write setup over the
/// page tables, loading the executable image and zeroing bss through the
/// memory system. Substitutes for the paper's Linux measurement (Table 7's
/// point is the ratio: kernel clone ≪ process creation).
fn modeled_fork_exec(m: &mut Machine, core: usize) -> u64 {
    let line = m.cfg.line;
    let lines_per_page = FRAME_SIZE / line;
    let t0 = m.cycles(core);
    // fork: duplicate ~32 page-table pages + task state.
    for p in 0..32u64 {
        for l in 0..lines_per_page {
            let src = PAddr(0xA00_0000 + p * FRAME_SIZE + l * line);
            let dst = PAddr(0xB00_0000 + p * FRAME_SIZE + l * line);
            m.data_access(core, Asid::KERNEL, VAddr(src.0), src, false, true);
            m.data_access(core, Asid::KERNEL, VAddr(dst.0), dst, true, true);
        }
    }
    m.advance(core, 20_000); // scheduler, vfs, accounting
                             // exec: read a ~150-page binary and zero ~40 pages of bss.
    for p in 0..150u64 {
        for l in 0..lines_per_page {
            let pa = PAddr(0xC00_0000 + p * FRAME_SIZE + l * line);
            m.data_access(core, Asid::KERNEL, VAddr(pa.0), pa, false, true);
        }
    }
    for p in 0..40u64 {
        for l in 0..lines_per_page {
            let pa = PAddr(0xD00_0000 + p * FRAME_SIZE + l * line);
            m.data_access(core, Asid::KERNEL, VAddr(pa.0), pa, true, true);
        }
    }
    m.advance(core, 30_000); // ELF parsing, mmap setup
    m.cycles(core) - t0
}

/// Table 7: cost of kernel clone/destroy vs (modelled) Linux process
/// creation.
#[must_use]
pub fn table7() -> String {
    let mut t = Table::new(&[
        "Arch",
        "clone (µs)",
        "destroy (µs)",
        "fork+exec (µs, modelled)",
    ]);
    for platform in Platform::ALL {
        let cfg = platform.config();
        let mut m = Machine::new(cfg, 55);
        let mut k = Kernel::new(cfg, ProtectionConfig::protected(), 16_384, u64::MAX / 4);
        let n = cfg.partition_colors();
        let d = k
            .create_domain(ColorSet::range(0, n / 2), 4096)
            .expect("domain");
        // Average over several clone/destroy cycles.
        let runs = 10;
        let mut clone_total = 0u64;
        let mut destroy_total = 0u64;
        for _ in 0..runs {
            let t0 = m.cycles(0);
            let img = k.clone_kernel_for_domain(&mut m, 0, d).expect("clone");
            clone_total += m.cycles(0) - t0;
            let t0 = m.cycles(0);
            k.kernel_destroy(&mut m, 0, img).expect("destroy");
            destroy_total += m.cycles(0) - t0;
        }
        let fork = modeled_fork_exec(&mut m, 0);
        t.row(&[
            platform.short_name().to_string(),
            format!("{:.0}", cfg.cycles_to_us(clone_total / runs)),
            format!("{:.1}", cfg.cycles_to_us(destroy_total / runs)),
            format!("{:.0}", cfg.cycles_to_us(fork)),
        ]);
    }
    format!(
        "Table 7: Cost of cloning/destroying kernel images vs (modelled)\nLinux process creation.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_every_registered_platform() {
        let s = table1();
        for p in Platform::ALL {
            assert!(s.contains(p.name()), "missing {}: {s}", p.name());
        }
        assert!(s.contains("8")); // 8 colours
    }

    #[test]
    fn table2_full_flush_dwarfs_l1_flush() {
        let s = table2();
        // Parse the two totals crudely: the full-flush x86 total must exceed
        // the L1 total by a large factor.
        let lines: Vec<&str> = s.lines().collect();
        let l1: Vec<f64> = lines
            .iter()
            .find(|l| l.contains("L1 only"))
            .unwrap()
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        let full: Vec<f64> = lines
            .iter()
            .find(|l| l.contains("Full flush"))
            .unwrap()
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        // Totals are every 3rd numeric column, one triple per platform.
        for (i, p) in Platform::ALL.iter().enumerate() {
            let (f, l) = (full[3 * i + 2], l1[3 * i + 2]);
            assert!(f > 5.0 * l, "{}: full {f} vs L1 {l}", p.short_name());
        }
    }

    #[test]
    fn ipc_baseline_is_a_few_hundred_cycles() {
        let c = ipc_cycles(Platform::Haswell, ProtectionConfig::raw(), false);
        assert!((150.0..1500.0).contains(&c), "IPC {c} cycles");
    }

    #[test]
    fn arm_colour_ready_pays_tlb_cost() {
        let orig = ipc_cycles(Platform::Sabre, ProtectionConfig::raw(), false);
        let ready = ipc_cycles(Platform::Sabre, ProtectionConfig::colour_ready(), false);
        let slow = ready / orig - 1.0;
        // Table 5: ~14% on the Sabre's 2-way L2 TLB; accept a loose band.
        assert!(
            slow > 0.02,
            "expected visible Arm colour-ready cost, got {slow}"
        );
        assert!(slow < 0.60, "implausible Arm colour-ready cost {slow}");
    }

    #[test]
    fn x86_colour_ready_is_cheap() {
        let orig = ipc_cycles(Platform::Haswell, ProtectionConfig::raw(), false);
        let ready = ipc_cycles(Platform::Haswell, ProtectionConfig::colour_ready(), false);
        let slow = (ready / orig - 1.0).abs();
        assert!(slow < 0.10, "x86 colour-ready should be ~1%, got {slow}");
    }

    #[test]
    fn inter_colour_close_to_intra() {
        let intra = ipc_cycles(Platform::Haswell, ProtectionConfig::protected(), false);
        let inter = ipc_cycles(Platform::Haswell, ProtectionConfig::protected(), true);
        let delta = (inter / intra - 1.0).abs();
        assert!(delta < 0.25, "inter vs intra diverge: {delta}");
    }

    #[test]
    fn table7_clone_beats_fork_exec() {
        let s = table7();
        let mut rows = 0;
        for line in s.lines().filter(|l| {
            Platform::ALL
                .iter()
                .any(|p| l.trim_start().starts_with(p.short_name()))
        }) {
            let nums: Vec<f64> = line
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            assert!(nums[0] < nums[2], "clone must beat fork+exec: {line}");
            assert!(nums[1] < nums[0], "destroy must beat clone: {line}");
            rows += 1;
        }
        assert_eq!(rows, Platform::ALL.len());
    }
}
