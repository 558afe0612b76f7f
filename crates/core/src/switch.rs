//! The preemption-tick / domain-switch path (§4.3).
//!
//! The running kernel is mostly unaware of domains; a domain switch happens
//! implicitly when the preemption timer rotates the core to a thread served
//! by a different kernel image. The steps, in order (bold in the paper
//! means kernel-switch only):
//!
//! 1. acquire the kernel lock
//! 2. process the timer tick normally
//! 3. **mask interrupts**
//! 4. **switch the kernel stack**
//! 5. switch thread context (implicitly the kernel image)
//! 6. release the kernel lock
//! 7. **unmask interrupts of the new kernel**
//! 8. **flush on-core microarchitectural state**
//! 9. **pre-fetch shared kernel data**
//! 10. **poll the cycle counter for the configured latency**
//! 11. reprogram the timer interrupt
//! 12. restore the user stack pointer and return

use crate::commit::Commit;
use crate::config::FlushMode;
use crate::kernel::{EngineMode, FootKind, Kernel};
use crate::layout::KERNEL_VBASE;
use crate::objects::{DomainId, ImageId, TcbId, ThreadState};
use tp_sim::flush as hwflush;
use tp_sim::{Asid, Machine, PAddr, VAddr};

/// Cost of acquiring the (uncontended) big kernel lock.
const LOCK_ACQUIRE: u64 = 30;
/// Cost of releasing the big kernel lock.
const LOCK_RELEASE: u64 = 15;
/// Cost of masking the interrupt controller.
const IRQ_MASK: u64 = 60;
/// Cost of probing/acknowledging racing interrupts after masking (the x86
/// hierarchical-controller race of §4.3; Arm's single-level GIC avoids it).
const IRQ_RACE_PROBE: u64 = 45;
/// Cost of unmasking the new kernel's interrupts.
const IRQ_UNMASK: u64 = 50;
/// Register save/restore for a thread context switch.
const CONTEXT_SWITCH: u64 = 90;
/// Reprogramming the preemption timer.
const TIMER_REPROGRAM: u64 = 35;

/// Result of processing a preemption tick.
#[derive(Debug, Clone, Copy)]
pub struct TickOutcome {
    /// Absolute cycle at which the next preemption tick should fire.
    pub next_tick_at: u64,
    /// Whether the kernel image (security domain) changed.
    pub switched_domain: bool,
}

impl Kernel {
    /// Process a preemption tick on `core`: rotate the schedule and perform
    /// the full §4.3 switch sequence where the kernel image changes.
    pub fn handle_tick(&mut self, m: &mut Machine, core: usize) -> TickOutcome {
        let _gate = self.log.enter(|| Commit::Tick { core });
        let tick_cycle = m.cycles(core);
        self.stats.ticks += 1;
        self.cores[core].ticks += 1;
        let from_image = self.cores[core].cur_image;

        // Step 2's scheduling decision. It costs no cycles of its own and
        // the tick's kernel footprint does not read it, so it is made
        // before `switch_steps` charges steps 1 and 2.

        // Re-queue the preempted thread.
        if let Some(t) = self.cores[core].cur.take() {
            let (domain, prio, state) = {
                let tcb = self.tcbs.get(t.0).expect("live thread");
                (tcb.domain, tcb.priority, tcb.state)
            };
            if state == ThreadState::Ready {
                self.run_queues
                    .entry((core, domain))
                    .or_default()
                    .enqueue(prio, t);
            }
        }

        // Rotate to the next slot (Slotted) or re-pick (Open).
        let next_domain = self.rotate_slot(core);
        if let Some(d) = next_domain {
            self.wake_sleepers(core, d);
        }
        let next_thread = match self.cores[core].mode {
            EngineMode::Slotted => next_domain.and_then(|d| {
                self.run_queues
                    .get_mut(&(core, d))
                    .and_then(crate::sched::ReadyQueues::dequeue)
            }),
            EngineMode::Open => self.pick_best_any_domain(core),
        };
        // The target image: the next thread's, or the slot domain's kernel
        // (whose idle thread will run), or the current one.
        let to_image = next_thread
            .map(|t| self.tcbs.get(t.0).expect("live thread").image)
            .or_else(|| next_domain.map(|d| self.domains.get(d.0).expect("live domain").image))
            .unwrap_or(from_image);

        // A *domain* switch occurs when the security domain changes, even
        // if both domains are served by a shared kernel image (the raw /
        // full-flush scenarios). The image-specific steps (stack switch)
        // additionally require the image to change.
        let from_domain = self.cores[core].cur_domain;
        let to_domain = match self.cores[core].mode {
            EngineMode::Slotted => next_domain,
            EngineMode::Open => {
                next_thread.map(|t| self.tcbs.get(t.0).expect("live thread").domain)
            }
        };
        let switched = to_domain.is_some() && to_domain != from_domain;
        if let Some(d) = to_domain {
            self.cores[core].cur_domain = Some(d);
        }
        let to_image = if switched {
            self.stats.domain_switches += 1;
            Some(to_image)
        } else {
            self.stats.thread_switches += 1;
            None
        };
        // The padding latency is taken from the kernel active prior to the
        // switch.
        let pad_until = tick_cycle + self.pad_for(from_image);
        self.switch_steps(m, core, to_image, next_thread, Some(pad_until));

        // The next tick is one slice after this one, or one slice after the
        // switch if the switch overran the slice.
        let slice_start = self.cores[core].slice_start;
        let mut next_tick_at = tick_cycle + self.slice_cycles;
        if next_tick_at <= slice_start {
            next_tick_at = slice_start + self.slice_cycles;
        }
        TickOutcome {
            next_tick_at,
            switched_domain: switched,
        }
    }

    /// Steps 1–12 of the §4.3 sequence on `core`, leaving `next` current.
    /// `to_image` is the kernel image of a domain switch, which takes the
    /// bold steps; a switch between threads of one domain passes `None`.
    /// A preemption tick passes `Some(pad_until)`, which adds what the
    /// Table 6 measurement leaves out: delivering the IRQs deferred for the
    /// new kernel, counting the flush, padding to `pad_until` and starting
    /// the new slice.
    fn switch_steps(
        &mut self,
        m: &mut Machine,
        core: usize,
        to_image: Option<ImageId>,
        next: Option<TcbId>,
        pad_until: Option<u64>,
    ) {
        let from_image = self.cores[core].cur_image;
        let tick = pad_until.is_some();

        // Step 1: acquire the kernel lock.
        m.advance(core, LOCK_ACQUIRE);

        // Step 2: process the timer tick normally (kernel code + scheduler
        // shared data).
        self.kexec(m, core, from_image, FootKind::Tick, Asid::KERNEL, &[]);

        if let Some(to_image) = to_image {
            // Step 3: mask interrupts (x86 pays the race-probe).
            m.advance(core, IRQ_MASK);
            if self.cfg.llc.is_some() {
                m.advance(core, IRQ_RACE_PROBE);
            }

            // Step 4: switch the kernel stack (+ bookkeeping of which cores
            // run which image, used by destruction). Only needed when the
            // kernel image itself changes.
            if to_image != from_image {
                self.switch_image_fast(m, core, from_image, to_image);
            }

            // Step 5: switch thread context.
            m.advance(core, CONTEXT_SWITCH);
            self.cores[core].cur = next;

            // Step 6: release the kernel lock (before flushing, §4.3).
            m.advance(core, LOCK_RELEASE);

            // Step 7: unmask the new kernel's interrupts; a tick delivers
            // any that were deferred by partitioning (Requirement 5).
            m.advance(core, IRQ_UNMASK);
            if tick {
                self.deliver_pending_for(m, core, to_image);
            }

            // Step 8: flush on-core state (Requirements 1 and 4).
            let flush_start = m.cycles(core);
            self.do_flush(m, core, to_image);
            if tick {
                self.stats.flush_cycles += m.cycles(core) - flush_start;
            }
            // Prefetcher state machines are *not* reset by the on-core
            // flush — their stale streams remain live (§5.3.2).
            m.note_domain_switch(core);

            // Step 9: deterministically pre-fetch the shared kernel data
            // (Requirement 3).
            if self.prot.prefetch_shared {
                self.prefetch_shared(m, core);
            }

            // Step 10: poll the cycle counter until the configured latency
            // since the preemption interrupt has elapsed (Requirement 4).
            if let Some(target) = pad_until {
                let now = m.cycles(core);
                if now < target {
                    self.stats.pad_cycles += target - now;
                    m.advance(core, target - now);
                }
            }
        } else {
            m.advance(core, CONTEXT_SWITCH);
            self.cores[core].cur = next;
        }

        // Step 11: reprogram the timer.
        m.advance(core, TIMER_REPROGRAM);
        if tick {
            self.cores[core].slice_start = m.cycles(core);
        }

        // Step 12: return to user.
        m.advance(core, self.cfg.lat.mode_switch / 2);
    }

    fn rotate_slot(&mut self, core: usize) -> Option<DomainId> {
        let cs = &mut self.cores[core];
        if cs.slots.is_empty() {
            return None;
        }
        cs.slot_idx = (cs.slot_idx + 1) % cs.slots.len();
        Some(cs.slots[cs.slot_idx])
    }

    fn wake_sleepers(&mut self, core: usize, domain: DomainId) {
        let Some(threads) = self.slot_threads.get(&(core, domain)) else {
            return;
        };
        let sleepers: Vec<_> = threads
            .iter()
            .copied()
            .filter(|t| {
                self.tcbs.get(t.0).expect("live thread").state == ThreadState::SleepingUntilSlice
            })
            .collect();
        for t in sleepers {
            self.wake(t);
        }
    }

    /// Deliver IRQs owned by `image` that were deferred while it was
    /// switched out.
    pub fn deliver_pending_for(&mut self, m: &mut Machine, core: usize, image: ImageId) {
        let _gate = self.log.enter(|| Commit::DeliverPendingFor { core, image });
        let owned: Vec<u32> = (0..crate::kernel::NUM_IRQS as u32)
            .filter(|&i| {
                self.irqs[i as usize].owner == Some(image) && self.irqs[i as usize].pending
            })
            .collect();
        for irq in owned {
            self.deliver_irq(m, core, irq);
        }
    }

    fn pad_for(&self, from_image: ImageId) -> u64 {
        let img_pad = self.images.get(from_image.0).map_or(0, |i| i.pad_cycles);
        if img_pad > 0 {
            img_pad
        } else {
            self.prot.pad_us.map_or(0, |us| self.cfg.us_to_cycles(us))
        }
    }

    /// Step 8: the flush itself, per configuration and platform.
    pub fn do_flush(&mut self, m: &mut Machine, core: usize, new_image: ImageId) {
        let _gate = self.log.enter(|| Commit::Flush { core, new_image });
        let x86 = self.cfg.llc.is_some();
        match self.prot.flush {
            FlushMode::None => {}
            FlushMode::OnCore => {
                if x86 {
                    // invpcid + IBC + the "manual" L1 flushes through the
                    // new kernel's flush buffers.
                    hwflush::flush_tlbs(m, core);
                    hwflush::flush_branch_predictor(m, core);
                    let img = self.images.get(new_image.0).expect("live image");
                    let d_buf = PAddr(img.layout.l1d_buf[0] * tp_sim::FRAME_SIZE);
                    let i_buf = PAddr(img.layout.l1i_buf[0] * tp_sim::FRAME_SIZE);
                    hwflush::manual_flush_l1d(m, core, d_buf);
                    hwflush::manual_flush_l1i(m, core, i_buf);
                } else {
                    hwflush::flush_l1d_arch(m, core);
                    hwflush::flush_l1i_arch(m, core);
                    hwflush::flush_tlbs(m, core);
                    hwflush::flush_branch_predictor(m, core);
                }
            }
            FlushMode::Full => {
                if x86 {
                    hwflush::wbinvd(m, core);
                    hwflush::flush_tlbs(m, core);
                    hwflush::flush_branch_predictor(m, core);
                } else {
                    hwflush::arm_full_flush(m, core);
                }
            }
        }
    }

    /// Step 9: touch every line of the shared kernel data so the next
    /// kernel exit is deterministic (Requirement 3).
    pub fn prefetch_shared(&mut self, m: &mut Machine, core: usize) {
        let _gate = self.log.enter(|| Commit::PrefetchShared { core });
        let line = self.cfg.line;
        for i in 0..self.shared.lines() {
            let pa = self.shared.line_pa(i);
            let va = VAddr(KERNEL_VBASE + 0x40_0000 + i * line);
            m.data_access(
                core,
                Asid::KERNEL,
                va,
                pa,
                false,
                self.prot.kernel_global_mappings,
            );
        }
    }

    /// Measure the cost of switching away from the current state of `core`
    /// to `to_image` without padding — the Table 6 measurement.
    pub fn measure_switch_cost(&mut self, m: &mut Machine, core: usize, to_image: ImageId) -> u64 {
        let _gate = self
            .log
            .enter(|| Commit::MeasureSwitchCost { core, to_image });
        let start = m.cycles(core);
        let cur = self.cores[core].cur;
        self.switch_steps(m, core, Some(to_image), cur, None);
        m.cycles(core) - start
    }
}

/// Test helper: dirty `lines` distinct L1-D lines so the flush
/// cost reflects the worst case.
pub fn dirty_l1d(m: &mut Machine, core: usize, base: PAddr, lines: u64) {
    let line = m.cfg.line;
    for i in 0..lines {
        let pa = PAddr(base.0 + i * line);
        m.data_access(core, Asid(999), VAddr(pa.0), pa, true, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtectionConfig;
    use tp_sim::{ColorSet, Platform};

    /// Two domains splitting the colours of `platform`, with d0's thread
    /// current on core 0.
    fn two_domain_kernel(platform: Platform, prot: ProtectionConfig) -> (Machine, Kernel) {
        let cfg = platform.config();
        let mut m = Machine::new(cfg, 11);
        let mut k = Kernel::new(cfg, prot, 16384, 3_400_000);
        let n = cfg.partition_colors();
        let d0 = k.create_domain(ColorSet::range(0, n / 2), 2048).unwrap();
        let d1 = k.create_domain(ColorSet::range(n / 2, n), 2048).unwrap();
        if k.prot.clone_kernel {
            k.clone_kernel_for_domain(&mut m, 0, d0).unwrap();
            k.clone_kernel_for_domain(&mut m, 0, d1).unwrap();
        }
        let t0 = k.create_thread(d0, 0, 100).unwrap();
        let _t1 = k.create_thread(d1, 0, 100).unwrap();
        // Start with d0's thread current.
        let q = k.run_queues.get_mut(&(0, d0)).unwrap();
        let first = q.dequeue().unwrap();
        assert_eq!(first, t0);
        let img = k.domains.get(d0.0).unwrap().image;
        k.cores[0].cur = Some(first);
        k.cores[0].cur_image = img;
        k.cores[0].slot_idx = 0;
        (m, k)
    }

    #[test]
    fn tick_rotates_between_domains() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::protected());
        let img0 = k.cores[0].cur_image;
        let out = k.handle_tick(&mut m, 0);
        assert!(out.switched_domain);
        assert_ne!(k.cores[0].cur_image, img0);
        let out = k.handle_tick(&mut m, 0);
        assert!(out.switched_domain);
        assert_eq!(k.cores[0].cur_image, img0);
        assert_eq!(k.stats.domain_switches, 2);
    }

    #[test]
    fn measured_switch_cost_is_the_ticks_switch() {
        for platform in Platform::ALL {
            for prot in [
                ProtectionConfig::raw(),
                ProtectionConfig::full_flush(),
                ProtectionConfig::protected(),
            ] {
                let (mut m, mut k) = two_domain_kernel(platform, prot);
                for round in 0..4u64 {
                    dirty_l1d(&mut m, 0, PAddr(0x400_0000), 64 + round * 100);
                    let (mut m2, mut k2) = (m.clone(), k.clone());
                    let t0 = m.cycles(0);
                    assert!(k.handle_tick(&mut m, 0).switched_domain);
                    let ticked = m.cycles(0) - t0;
                    let to = k.cores[0].cur_image;
                    assert_eq!(
                        k2.measure_switch_cost(&mut m2, 0, to),
                        ticked,
                        "{} {prot:?} round {round}",
                        platform.key()
                    );
                }
            }
        }
    }

    #[test]
    fn protected_switch_flushes_on_core_state() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::protected());
        // Dirty some attacker state.
        dirty_l1d(&mut m, 0, PAddr(0x400_0000), 200);
        assert!(m.cores[0].l1d.valid_lines() > 100);
        k.handle_tick(&mut m, 0);
        // After the manual flush, prior lines are (almost) all gone.
        let geom = m.cores[0].l1d.geom();
        let mut survivors = 0;
        for i in 0..200u64 {
            let pa = 0x400_0000 + i * 64;
            let set = tp_sim::cache::phys_set(geom, pa);
            let tag = tp_sim::cache::phys_tag(geom, pa);
            if m.cores[0].l1d.peek(set, tag) {
                survivors += 1;
            }
        }
        assert!(survivors < 20, "manual flush left {survivors} lines");
        assert!(m.cores[0].btb.valid_entries() <= m.cores[0].l1i.geom().lines());
    }

    #[test]
    fn raw_switch_flushes_nothing() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::raw());
        dirty_l1d(&mut m, 0, PAddr(0x400_0000), 200);
        let before = m.cores[0].l1d.valid_lines();
        k.handle_tick(&mut m, 0);
        // Only the kernel's own footprint perturbs the cache.
        assert!(m.cores[0].l1d.valid_lines() >= before - 40);
        assert_eq!(k.stats.flush_cycles, 0);
    }

    #[test]
    fn padding_stretches_switch_to_configured_latency() {
        let cfg = Platform::Haswell.config();
        let pad_us = 58.8;
        let mut prot = ProtectionConfig::protected();
        prot.pad_us = Some(pad_us);
        let (mut m, mut k) = {
            let mut m = Machine::new(cfg, 11);
            let mut k = Kernel::new(cfg, prot, 16384, 3_400_000);
            let d0 = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
            let d1 = k.create_domain(ColorSet::range(4, 8), 2048).unwrap();
            k.clone_kernel_for_domain(&mut m, 0, d0).unwrap();
            k.clone_kernel_for_domain(&mut m, 0, d1).unwrap();
            let t0 = k.create_thread(d0, 0, 100).unwrap();
            let _ = k.create_thread(d1, 0, 100).unwrap();
            k.run_queues.get_mut(&(0, d0)).unwrap().dequeue();
            k.cores[0].cur = Some(t0);
            k.cores[0].cur_image = k.domains.get(d0.0).unwrap().image;
            (m, k)
        };
        // Vary the dirtiness: with padding, total switch latency must be
        // constant (= pad) regardless.
        let mut latencies = Vec::new();
        for dirt in [8u64, 400] {
            dirty_l1d(&mut m, 0, PAddr(0x400_0000), dirt);
            let t0 = m.cycles(0);
            k.handle_tick(&mut m, 0);
            latencies.push(m.cycles(0) - t0);
        }
        let pad_cycles = cfg.us_to_cycles(pad_us);
        for &l in &latencies {
            assert!(l >= pad_cycles, "switch {l} below pad {pad_cycles}");
            // Fixed epilogue (timer reprogram + return) rides on top.
            assert!(
                l < pad_cycles + 500,
                "switch {l} far above pad {pad_cycles}"
            );
        }
        assert!(k.stats.pad_cycles > 0);
    }

    #[test]
    fn full_flush_switch_is_very_expensive() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::full_flush());
        let t0 = m.cycles(0);
        k.handle_tick(&mut m, 0);
        let us = k.cfg.cycles_to_us(m.cycles(0) - t0);
        // Table 6: ~271 µs on x86.
        assert!(us > 100.0, "full flush switch only {us} µs");
    }

    #[test]
    fn pending_partitioned_irq_delivered_on_slot_entry() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::protected());
        // Bind IRQ 5 to the *other* (d1) kernel and mark it pending.
        let d1_img = {
            let ids: Vec<_> = k.domains.iter().map(|(i, d)| (i, d.image)).collect();
            ids.iter()
                .find(|(_, img)| *img != k.cores[0].cur_image && *img != k.boot_image)
                .unwrap()
                .1
        };
        k.kernel_set_int(d1_img, 5, None).unwrap();
        assert!(!k.irq_arrives(&mut m, 0, 5), "IRQ must defer while foreign");
        let delivered_before = k.stats.irqs_delivered;
        k.handle_tick(&mut m, 0); // rotates into d1's slot
        assert_eq!(k.cores[0].cur_image, d1_img);
        assert_eq!(k.stats.irqs_delivered, delivered_before + 1);
        assert!(!k.irqs[5].pending);
    }

    /// Take `t` off its run queue and put it to sleep until its slot.
    fn put_to_sleep(k: &mut Kernel, t: crate::objects::TcbId) {
        let (core, domain, prio) = {
            let tcb = k.tcbs.get(t.0).unwrap();
            (tcb.core, tcb.domain, tcb.priority)
        };
        k.run_queues
            .get_mut(&(core, domain))
            .unwrap()
            .remove(prio, t);
        k.tcbs.get_mut(t.0).unwrap().state = ThreadState::SleepingUntilSlice;
    }

    #[test]
    fn sleepers_wake_at_their_slot() {
        let (mut m, mut k) = two_domain_kernel(Platform::Haswell, ProtectionConfig::protected());
        // Put the non-current (d1) thread to sleep.
        let s = k
            .tcbs
            .iter()
            .map(|(i, _)| crate::objects::TcbId(i))
            .find(|&t| k.cores[0].cur != Some(t))
            .unwrap();
        put_to_sleep(&mut k, s);
        k.handle_tick(&mut m, 0);
        assert_eq!(k.cores[0].cur, Some(s), "sleeper must wake for its slot");
    }

    #[test]
    fn only_the_incoming_slots_sleepers_wake_in_tcb_order() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 11);
        let mut k = Kernel::new(cfg, ProtectionConfig::raw(), 16384, 3_400_000);
        let d0 = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
        let d1 = k.create_domain(ColorSet::range(4, 8), 2048).unwrap();
        let t0 = k.create_thread(d0, 0, 100).unwrap();
        // Interleave the incoming slot's sleepers with sleepers in another
        // domain on the same core and in the same domain on another core.
        let a = k.create_thread(d1, 0, 100).unwrap();
        let other_domain = k.create_thread(d0, 0, 100).unwrap();
        let b = k.create_thread(d1, 0, 100).unwrap();
        let other_core = k.create_thread(d1, 1, 100).unwrap();
        let c = k.create_thread(d1, 0, 100).unwrap();
        for t in [a, other_domain, b, other_core, c] {
            put_to_sleep(&mut k, t);
        }
        assert_eq!(k.run_queues.get_mut(&(0, d0)).unwrap().dequeue(), Some(t0));
        k.cores[0].cur = Some(t0);
        k.cores[0].slot_idx = 0;

        k.handle_tick(&mut m, 0); // rotates core 0 into d1's slot
        let state = |k: &Kernel, t: crate::objects::TcbId| k.tcbs.get(t.0).unwrap().state;
        for t in [a, b, c] {
            assert_eq!(state(&k, t), ThreadState::Ready, "{t:?} must wake");
        }
        for t in [other_domain, other_core] {
            assert_eq!(
                state(&k, t),
                ThreadState::SleepingUntilSlice,
                "{t:?} must sleep on"
            );
        }
        // Woken in ascending TcbId order: the first runs, the rest queue.
        assert_eq!(k.cores[0].cur, Some(a));
        let q = k.run_queues.get_mut(&(0, d1)).unwrap();
        assert_eq!(
            [q.dequeue(), q.dequeue(), q.dequeue()],
            [Some(b), Some(c), None]
        );
    }
}
