//! `Kernel_Clone` and `Kernel_Image` destruction (§4.1, §4.4).
//!
//! Cloning copies the source kernel's text, read-only data (interrupt
//! vectors etc.), replicated global data and stack into user-supplied
//! `Kernel_Memory`, creates a kernel address space (ASID) and an idle
//! thread. Destruction turns the image into a *zombie*, stalls every core
//! it is running on with IPIs (analogous to TLB shoot-down), and recovers
//! the memory.

use crate::commit::Commit;
use crate::kernel::{Kernel, KernelError};
use crate::layout::{ImageFrames, IMAGE_PAGES, KERNEL_VBASE};
use crate::objects::{
    CapObject, Capability, DomainId, ImageId, KernelImage, KernelMemory, KmemId, Rights, TcbId,
};
use tp_sim::{Asid, Machine, PAddr, VAddr, FRAME_SIZE};

/// Fixed cost of setting up the kernel address space, the ASID and the
/// idle thread during a clone.
const CLONE_SETUP_CYCLES: u64 = 20_000;

/// Per-page mapping cost while building the new kernel address space.
const CLONE_PER_PAGE_CYCLES: u64 = 260;

/// Cycle cost of sending one IPI.
const IPI_CYCLES: u64 = 700;

/// Actions the engine must take after a kernel destruction: cores to stall
/// (`system_stall` IPIs) and to TLB-invalidate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DestroyActions {
    /// Cores that were running the destroyed kernel and must switch to the
    /// boot image's idle thread.
    pub stall_cores: Vec<usize>,
    /// Threads suspended because they belonged to the destroyed kernel.
    pub suspended: Vec<TcbId>,
}

impl Kernel {
    /// Clone the kernel serving `domain` from its current image, placing
    /// the new image in memory drawn from the domain's own pool, and make
    /// it the domain's kernel. Returns the new image.
    ///
    /// This is the builder-level composite of retype (`Kernel_Memory`) +
    /// `Kernel_Clone` used by the initial resource manager in §3.3.
    ///
    /// # Errors
    /// Propagates pool exhaustion and invalid-object errors.
    pub fn clone_kernel_for_domain(
        &mut self,
        m: &mut Machine,
        core: usize,
        domain: DomainId,
    ) -> Result<ImageId, KernelError> {
        let _gate = self
            .log
            .enter(|| Commit::CloneKernelForDomain { core, domain });
        let frames = self.alloc_frames(domain, IMAGE_PAGES as usize)?;
        let kmem = KmemId(self.kmems.alloc(KernelMemory {
            frames,
            image: None,
        }));
        let src = self
            .domains
            .get(domain.0)
            .ok_or(KernelError::ObjectGone)?
            .image;
        let img = self.kernel_clone(m, core, src, kmem)?;
        self.domains.get_mut(domain.0).unwrap().image = img;
        // Threads already created in the domain are re-bound to the clone.
        for core in 0..self.cores.len() {
            for t in self.slot_threads.get(&(core, domain)).into_iter().flatten() {
                self.tcbs.get_mut(t.0).unwrap().image = img;
            }
        }
        Ok(img)
    }

    /// `Kernel_Clone` proper: clone `src` into `kmem` (§4.1, three-step
    /// protocol; the retype and ASID steps are folded into the caller).
    ///
    /// # Errors
    /// * [`KernelError::ObjectGone`] — `src` or `kmem` is dead or a zombie.
    /// * [`KernelError::InvalidArg`] — `kmem` already maps an image or is
    ///   too small.
    pub fn kernel_clone(
        &mut self,
        m: &mut Machine,
        core: usize,
        src: ImageId,
        kmem: KmemId,
    ) -> Result<ImageId, KernelError> {
        let _gate = self.log.enter(|| Commit::KernelClone { core, src, kmem });
        let src_img = self.images.get(src.0).ok_or(KernelError::ObjectGone)?;
        if src_img.zombie {
            return Err(KernelError::ObjectGone);
        }
        let src_frames = src_img.layout.clone();
        let km = self.kmems.get(kmem.0).ok_or(KernelError::ObjectGone)?;
        if km.image.is_some() {
            return Err(KernelError::InvalidArg);
        }
        if (km.frames.len() as u64) < IMAGE_PAGES {
            return Err(KernelError::InvalidArg);
        }
        let dst_frames = ImageFrames::from_frames(&km.frames);

        // Copy text + rodata + data + stack through the memory system.
        let line = self.cfg.line;
        let lines_per_page = FRAME_SIZE / line;
        let global = self.prot.kernel_global_mappings;
        let sections: [(&[u64], &[u64]); 4] = [
            (&src_frames.text, &dst_frames.text),
            (&src_frames.rodata, &dst_frames.rodata),
            (&src_frames.data, &dst_frames.data),
            (&src_frames.stack, &dst_frames.stack),
        ];
        for (s, d) in sections {
            for (pi, (&sp, &dp)) in s.iter().zip(d.iter()).enumerate() {
                for l in 0..lines_per_page {
                    let spa = PAddr(sp * FRAME_SIZE + l * line);
                    let dpa = PAddr(dp * FRAME_SIZE + l * line);
                    let va =
                        VAddr(KERNEL_VBASE + 0x70_0000 + (pi as u64 * lines_per_page + l) * line);
                    m.data_access(core, Asid::KERNEL, va, spa, false, global);
                    m.data_access(core, Asid::KERNEL, va, dpa, true, global);
                }
                m.advance(core, CLONE_PER_PAGE_CYCLES);
            }
        }
        m.advance(core, CLONE_SETUP_CYCLES);

        let asid = Asid(self.bump_asid());
        let img = ImageId(self.images.alloc(KernelImage {
            layout: dst_frames,
            asid,
            kmem: Some(kmem),
            irqs: Vec::new(),
            pad_cycles: 0,
            running_on: 0,
            zombie: false,
            parent: Some(src),
        }));
        self.kmems.get_mut(kmem.0).unwrap().image = Some(img);
        self.stats.clones += 1;
        Ok(img)
    }

    fn bump_asid(&mut self) -> u16 {
        // Kernel images draw from the high end of the ASID space so they
        // never collide with thread VSpaces.
        4096 + self.stats.clones as u16
    }

    /// Destroy a kernel image (§4.4). The image becomes a zombie, threads
    /// bound to it are suspended, and the returned [`DestroyActions`] tell
    /// the engine which cores to stall with `system_stall` IPIs.
    ///
    /// # Errors
    /// * [`KernelError::ObjectGone`] — already destroyed.
    /// * [`KernelError::InvalidArg`] — the boot image cannot be destroyed
    ///   (its `Kernel_Memory` is never handed to userland, preserving the
    ///   always-runnable-idle-thread invariant).
    pub fn kernel_destroy(
        &mut self,
        m: &mut Machine,
        core: usize,
        target: ImageId,
    ) -> Result<DestroyActions, KernelError> {
        let _gate = self.log.enter(|| Commit::KernelDestroy { core, target });
        if target == self.boot_image {
            return Err(KernelError::InvalidArg);
        }
        let img = self
            .images
            .get_mut(target.0)
            .ok_or(KernelError::ObjectGone)?;
        if img.zombie {
            return Err(KernelError::ObjectGone);
        }
        // 1. Invalidate the capability: the image becomes a zombie.
        img.zombie = true;
        let running_on = img.running_on;
        let kmem = img.kmem;

        let mut actions = DestroyActions::default();

        // 2. Suspend all threads bound to the target kernel.
        let victims: Vec<TcbId> = self
            .tcbs
            .iter()
            .filter(|(_, t)| t.image == target)
            .map(|(i, _)| TcbId(i))
            .collect();
        for t in victims {
            self.thread_exited(m, t);
            actions.suspended.push(t);
        }

        // 3. system_stall + TLB-invalidate IPIs to every core the zombie
        // runs on (other than the destroying core).
        for c in 0..self.cfg.cores {
            if c != core && running_on & (1 << c) != 0 {
                m.advance(core, 2 * IPI_CYCLES); // stall + shoot-down
                actions.stall_cores.push(c);
            }
        }

        // 4. Cleanup: return the memory to Untyped.
        let frames = self.images.get(target.0).unwrap().layout.all_frames();
        if let Some(kmem) = kmem {
            self.kmems.remove(kmem.0);
        }
        // Frames revert to the pool of whichever domain owns them (colour
        // determines the pool).
        // Frames revert to the most specific pool containing their colour
        // (domain pools are narrower than the boot pool).
        let pools: Vec<(usize, u32)> = self
            .untypeds
            .iter()
            .map(|(i, u)| (i, u.colors.count()))
            .collect();
        let n_colors = self.cfg.partition_colors();
        for f in frames {
            let c = tp_sim::color_of_frame(f, n_colors);
            let target = pools
                .iter()
                .filter(|(p, _)| self.untypeds.get(*p).unwrap().colors.contains(c))
                .min_by_key(|(_, count)| *count)
                .map(|(p, _)| *p);
            if let Some(p) = target {
                self.untypeds.get_mut(p).unwrap().free([f]);
            }
        }
        // Domains served by the zombie fall back to the boot image.
        let orphaned: Vec<usize> = self
            .domains
            .iter()
            .filter(|(_, d)| d.image == target)
            .map(|(i, _)| i)
            .collect();
        for d in orphaned {
            self.domains.get_mut(d).unwrap().image = self.boot_image;
        }
        for cs in &mut self.cores {
            if cs.cur_image == target {
                cs.cur_image = self.boot_image;
            }
        }
        self.images.remove(target.0);
        self.stats.destroys += 1;
        // Per-frame bookkeeping cost.
        m.advance(core, 40 * IMAGE_PAGES);
        Ok(actions)
    }

    /// Grant the master `Kernel_Image` capability (with clone right) for an
    /// image to a thread, as the kernel does for the initial process.
    pub fn grant_image_cap(&mut self, t: TcbId, image: ImageId, clone_right: bool) -> usize {
        let _gate = self.log.enter(|| Commit::GrantImageCap {
            t,
            image,
            clone_right,
        });
        let rights = Rights {
            clone: clone_right,
            ..Rights::all()
        };
        self.grant_cap(
            t,
            Capability {
                obj: CapObject::KernelImage(image),
                rights,
            },
        )
    }

    /// The capability-checked `Kernel_Clone` invocation (§4.1 step 3): the
    /// caller passes an existing `Kernel_Image` capability *with the clone
    /// right* and a `Kernel_Memory` capability. The initial process can
    /// prevent other threads from cloning by handing them only derived
    /// capabilities with the clone right stripped.
    ///
    /// # Errors
    /// * [`KernelError::InsufficientRights`] — the image capability lacks
    ///   the clone right.
    /// * [`KernelError::TypeMismatch`] / [`KernelError::InvalidCap`] — bad
    ///   capabilities.
    /// * Plus everything [`Kernel::kernel_clone`] can return.
    pub fn kernel_clone_invocation(
        &mut self,
        m: &mut Machine,
        core: usize,
        caller: TcbId,
        image_cap: usize,
        kmem_cap: usize,
    ) -> Result<ImageId, KernelError> {
        let _gate = self.log.enter(|| Commit::KernelCloneInvocation {
            core,
            caller,
            image_cap,
            kmem_cap,
        });
        let lookup = |k: &Kernel, idx: usize| {
            k.tcbs
                .get(caller.0)
                .ok_or(KernelError::ObjectGone)?
                .cspace
                .get(idx)
                .copied()
                .ok_or(KernelError::InvalidCap)
        };
        let icap = lookup(self, image_cap)?;
        let kcap = lookup(self, kmem_cap)?;
        let src = match icap.obj {
            crate::objects::CapObject::KernelImage(img) => {
                if !icap.rights.clone {
                    return Err(KernelError::InsufficientRights);
                }
                img
            }
            _ => return Err(KernelError::TypeMismatch),
        };
        let kmem = match kcap.obj {
            crate::objects::CapObject::KernelMemory(km) => {
                if !kcap.rights.write {
                    return Err(KernelError::InsufficientRights);
                }
                km
            }
            _ => return Err(KernelError::TypeMismatch),
        };
        self.kernel_clone(m, core, src, kmem)
    }

    /// Revoke a `Kernel_Image`: destroys the image **and every kernel
    /// cloned from it**, transitively (§4.1: "revoking a Kernel_Image
    /// capability destroys all kernels cloned from it").
    ///
    /// # Errors
    /// As [`Kernel::kernel_destroy`]; the boot image cannot be revoked.
    pub fn kernel_revoke(
        &mut self,
        m: &mut Machine,
        core: usize,
        target: ImageId,
    ) -> Result<Vec<ImageId>, KernelError> {
        let _gate = self.log.enter(|| Commit::KernelRevoke { core, target });
        // Collect the clone subtree (children before parents).
        let mut order = Vec::new();
        let mut stack = vec![target];
        while let Some(img) = stack.pop() {
            order.push(img);
            let children: Vec<ImageId> = self
                .images
                .iter()
                .filter(|(_, k)| k.parent == Some(img))
                .map(|(i, _)| ImageId(i))
                .collect();
            stack.extend(children);
        }
        // Destroy leaves first.
        for img in order.iter().rev() {
            self.kernel_destroy(m, core, *img)?;
        }
        Ok(order)
    }

    /// Re-partitioning (§3.3, §6.1): move one page colour from one domain's
    /// pool to another's. All *free* frames of that colour migrate; the
    /// granularity is necessarily a full colour ("fairly expensive", as the
    /// paper notes — a consequence of missing fine-grained hardware
    /// partitioning).
    ///
    /// # Errors
    /// * [`KernelError::InvalidArg`] — `from` does not own the colour or
    ///   it is `from`'s last colour.
    pub fn move_color(
        &mut self,
        from: DomainId,
        to: DomainId,
        color: u64,
    ) -> Result<usize, KernelError> {
        let _gate = self.log.enter(|| Commit::MoveColor { from, to, color });
        let n_colors = self.cfg.partition_colors();
        let (from_pool, from_colors) = {
            let d = self.domains.get(from.0).ok_or(KernelError::ObjectGone)?;
            (d.pool, d.colors)
        };
        let to_pool = self.domains.get(to.0).ok_or(KernelError::ObjectGone)?.pool;
        if !from_colors.contains(color) || from_colors.count() <= 1 {
            return Err(KernelError::InvalidArg);
        }
        // Drain the colour's free frames from the source pool.
        let src = self
            .untypeds
            .get_mut(from_pool.0)
            .ok_or(KernelError::ObjectGone)?;
        let all = src.alloc(src.available()).unwrap_or_default();
        let (moved, kept): (Vec<u64>, Vec<u64>) = all
            .into_iter()
            .partition(|f| tp_sim::color_of_frame(*f, n_colors) == color);
        src.free(kept);
        src.colors = src.colors.minus(tp_sim::ColorSet::EMPTY.with(color));
        let n = moved.len();
        let dst = self
            .untypeds
            .get_mut(to_pool.0)
            .ok_or(KernelError::ObjectGone)?;
        dst.free(moved);
        dst.colors = dst.colors.with(color);
        self.domains.get_mut(from.0).unwrap().colors =
            from_colors.minus(tp_sim::ColorSet::EMPTY.with(color));
        let to_colors = self.domains.get(to.0).unwrap().colors;
        self.domains.get_mut(to.0).unwrap().colors = to_colors.with(color);
        Ok(n)
    }

    /// Nested partitioning (§3.3): carve a sub-domain out of a *parent
    /// domain's* pool, taking all the parent's free frames of the given
    /// colours. The parent must keep at least one colour.
    ///
    /// # Errors
    /// * [`KernelError::InvalidArg`] — colours not a strict subset of the
    ///   parent's.
    pub fn create_nested_domain(
        &mut self,
        parent: DomainId,
        colors: tp_sim::ColorSet,
    ) -> Result<DomainId, KernelError> {
        let _gate = self
            .log
            .enter(|| Commit::CreateNestedDomain { parent, colors });
        let (p_pool, p_colors, p_image) = {
            let d = self.domains.get(parent.0).ok_or(KernelError::ObjectGone)?;
            (d.pool, d.colors, d.image)
        };
        if colors.count() == 0
            || colors.minus(p_colors).count() != 0
            || p_colors.minus(colors).count() == 0
        {
            return Err(KernelError::InvalidArg);
        }
        let n_colors = self.cfg.partition_colors();
        let src = self
            .untypeds
            .get_mut(p_pool.0)
            .ok_or(KernelError::ObjectGone)?;
        let all = src.alloc(src.available()).unwrap_or_default();
        let (taken, kept): (Vec<u64>, Vec<u64>) = all
            .into_iter()
            .partition(|f| colors.contains(tp_sim::color_of_frame(*f, n_colors)));
        src.free(kept);
        src.colors = src.colors.minus(colors);
        self.domains.get_mut(parent.0).unwrap().colors = p_colors.minus(colors);
        let pool = crate::objects::UntypedId(
            self.untypeds
                .alloc(crate::objects::Untyped::new(taken, colors)),
        );
        Ok(DomainId(self.domains.alloc(crate::objects::Domain {
            colors,
            image: p_image,
            pool,
            timer_ntfn: None,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtectionConfig;
    use tp_sim::{ColorSet, Platform};

    fn setup() -> (Machine, Kernel) {
        let cfg = Platform::Haswell.config();
        let m = Machine::new(cfg, 7);
        let k = Kernel::new(cfg, ProtectionConfig::protected(), 16384, 3_400_000);
        (m, k)
    }

    #[test]
    fn clone_places_image_in_domain_colors() {
        let (mut m, mut k) = setup();
        let colors = ColorSet::range(0, 4);
        let d = k.create_domain(colors, 2048).unwrap();
        let img = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        let n = k.cfg.partition_colors();
        let image = k.images.get(img.0).unwrap();
        for f in image.layout.all_frames() {
            assert!(colors.contains(tp_sim::color_of_frame(f, n)));
        }
        assert_ne!(
            image.layout.text,
            k.images.get(k.boot_image.0).unwrap().layout.text
        );
        assert_eq!(k.domains.get(d.0).unwrap().image, img);
    }

    #[test]
    fn clone_cost_is_tens_of_microseconds() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
        let before = m.cycles(0);
        k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        let us = k.cfg.cycles_to_us(m.cycles(0) - before);
        // Table 7: 79 µs on x86; we accept the same order of magnitude and,
        // crucially, far less than a Linux fork+exec (257 µs).
        assert!((10.0..250.0).contains(&us), "clone cost {us} µs");
    }

    #[test]
    fn clone_requires_sufficient_kmem() {
        let (mut m, mut k) = setup();
        let frames = k.alloc_frames(k.boot_domain, 3).unwrap();
        let kmem = KmemId(k.kmems.alloc(KernelMemory {
            frames,
            image: None,
        }));
        let boot = k.boot_image;
        assert_eq!(
            k.kernel_clone(&mut m, 0, boot, kmem),
            Err(KernelError::InvalidArg)
        );
    }

    #[test]
    fn destroy_recovers_memory_and_rebinds_domain() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
        let pool = k.domains.get(d.0).unwrap().pool;
        let before = k.untypeds.get(pool.0).unwrap().available();
        let img = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        let after_clone = k.untypeds.get(pool.0).unwrap().available();
        assert_eq!(before - after_clone, IMAGE_PAGES as usize);
        k.kernel_destroy(&mut m, 0, img).unwrap();
        assert_eq!(k.untypeds.get(pool.0).unwrap().available(), before);
        assert_eq!(k.domains.get(d.0).unwrap().image, k.boot_image);
        assert!(k.images.get(img.0).is_none());
    }

    #[test]
    fn destroy_stalls_remote_cores() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
        let img = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        // Pretend the clone runs on cores 1 and 2.
        k.images.get_mut(img.0).unwrap().running_on = 0b0110;
        let actions = k.kernel_destroy(&mut m, 0, img).unwrap();
        assert_eq!(actions.stall_cores, vec![1, 2]);
    }

    #[test]
    fn boot_image_is_indestructible() {
        let (mut m, mut k) = setup();
        let boot = k.boot_image;
        assert_eq!(
            k.kernel_destroy(&mut m, 0, boot),
            Err(KernelError::InvalidArg)
        );
    }

    #[test]
    fn destroy_suspends_bound_threads() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 2048).unwrap();
        let img = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        assert_eq!(k.tcbs.get(t.0).unwrap().image, img);
        let actions = k.kernel_destroy(&mut m, 0, img).unwrap();
        assert_eq!(actions.suspended, vec![t]);
        assert_eq!(
            k.tcbs.get(t.0).unwrap().state,
            crate::objects::ThreadState::Exited
        );
    }

    #[test]
    fn clone_invocation_requires_the_clone_right() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 4096).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        let boot = k.boot_image;
        // A derived capability with the clone right stripped.
        let weak = k.grant_image_cap(t, boot, false);
        let frames = k.alloc_frames(d, IMAGE_PAGES as usize).unwrap();
        let kmem = KmemId(k.kmems.alloc(KernelMemory {
            frames,
            image: None,
        }));
        let kcap = k.grant_cap(
            t,
            Capability {
                obj: CapObject::KernelMemory(kmem),
                rights: Rights::all(),
            },
        );
        assert_eq!(
            k.kernel_clone_invocation(&mut m, 0, t, weak, kcap),
            Err(KernelError::InsufficientRights)
        );
        // The master capability (with clone right) succeeds.
        let master = k.grant_image_cap(t, boot, true);
        let img = k
            .kernel_clone_invocation(&mut m, 0, t, master, kcap)
            .unwrap();
        assert_eq!(k.images.get(img.0).unwrap().parent, Some(boot));
    }

    #[test]
    fn revoke_destroys_the_whole_clone_subtree() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 6000).unwrap();
        // boot -> a -> b, boot -> a -> c: revoking a kills a, b and c.
        let a = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        let mk_kmem = |k: &mut Kernel| {
            let frames = k.alloc_frames(d, IMAGE_PAGES as usize).unwrap();
            KmemId(k.kmems.alloc(KernelMemory {
                frames,
                image: None,
            }))
        };
        let km_b = mk_kmem(&mut k);
        let b = k.kernel_clone(&mut m, 0, a, km_b).unwrap();
        let km_c = mk_kmem(&mut k);
        let c = k.kernel_clone(&mut m, 0, a, km_c).unwrap();
        let destroyed = k.kernel_revoke(&mut m, 0, a).unwrap();
        assert_eq!(destroyed.len(), 3);
        for img in [a, b, c] {
            assert!(k.images.get(img.0).is_none(), "{img:?} must be destroyed");
        }
        assert!(
            k.images.get(k.boot_image.0).is_some(),
            "boot image survives"
        );
    }

    #[test]
    fn move_color_repartitions_free_memory() {
        let (_, mut k) = setup();
        let d0 = k.create_domain(ColorSet::range(0, 4), 4000).unwrap();
        let d1 = k.create_domain(ColorSet::range(4, 8), 4000).unwrap();
        let before0 = k
            .untypeds
            .get(k.domains.get(d0.0).unwrap().pool.0)
            .unwrap()
            .available();
        let moved = k.move_color(d0, d1, 3).unwrap();
        assert!(moved > 100, "a full colour's worth of frames moves");
        assert!(!k.domains.get(d0.0).unwrap().colors.contains(3));
        assert!(k.domains.get(d1.0).unwrap().colors.contains(3));
        let after0 = k
            .untypeds
            .get(k.domains.get(d0.0).unwrap().pool.0)
            .unwrap()
            .available();
        assert_eq!(before0 - after0, moved);
        // A domain cannot give away a colour it does not own, nor its last.
        assert_eq!(k.move_color(d0, d1, 3), Err(KernelError::InvalidArg));
        for c in [0, 1] {
            let _ = k.move_color(d0, d1, c);
        }
        assert_eq!(
            k.move_color(d0, d1, 2),
            Err(KernelError::InvalidArg),
            "last colour stays"
        );
    }

    #[test]
    fn nested_partitioning() {
        let (_, mut k) = setup();
        let parent = k.create_domain(ColorSet::range(0, 4), 6000).unwrap();
        let child = k
            .create_nested_domain(parent, ColorSet::range(0, 2))
            .unwrap();
        assert_eq!(
            k.domains.get(parent.0).unwrap().colors,
            ColorSet::range(2, 4)
        );
        assert_eq!(
            k.domains.get(child.0).unwrap().colors,
            ColorSet::range(0, 2)
        );
        // Child allocations respect the sub-partition.
        let t = k.create_thread(child, 0, 100).unwrap();
        let (_, frames) = k.map_user_pages(t, 16).unwrap();
        let n = k.cfg.partition_colors();
        for f in frames {
            assert!(tp_sim::color_of_frame(f, n) < 2);
        }
        // Taking all of the parent's colours is rejected.
        assert_eq!(
            k.create_nested_domain(parent, ColorSet::range(2, 4)),
            Err(KernelError::InvalidArg)
        );
        // Foreign colours are rejected.
        assert_eq!(
            k.create_nested_domain(child, ColorSet::range(2, 3)),
            Err(KernelError::InvalidArg)
        );
    }

    #[test]
    fn zombie_cannot_be_cloned_or_redestroyed() {
        let (mut m, mut k) = setup();
        let d = k.create_domain(ColorSet::range(0, 4), 4096).unwrap();
        let img = k.clone_kernel_for_domain(&mut m, 0, d).unwrap();
        k.kernel_destroy(&mut m, 0, img).unwrap();
        assert_eq!(
            k.kernel_destroy(&mut m, 0, img),
            Err(KernelError::ObjectGone)
        );
        let frames = k.alloc_frames(k.boot_domain, IMAGE_PAGES as usize).unwrap();
        let kmem = KmemId(k.kmems.alloc(KernelMemory {
            frames,
            image: None,
        }));
        assert_eq!(
            k.kernel_clone(&mut m, 0, img, kmem),
            Err(KernelError::ObjectGone)
        );
    }
}
