//! Kernel image layout and the §4.1 shared-data audit.
//!
//! A kernel image consists of text, read-only data (interrupt vectors
//! etc.), a private copy of (almost all) global data, and a stack. Cloning
//! copies all of these into user-supplied `Kernel_Memory`. What remains
//! shared between all images is the short list of items in §4.1 — about
//! 9.5 KiB per core on x64 — which the kernel prefetches deterministically
//! on every domain switch (Requirement 3).

use tp_sim::{PAddr, PlatformConfig, FRAME_SIZE};

/// Pages of kernel text.
pub const TEXT_PAGES: u64 = 16; // 64 KiB
/// Pages of read-only data (interrupt vector table etc.).
pub const RODATA_PAGES: u64 = 4; // 16 KiB
/// Pages of per-image (replicated) global data.
pub const DATA_PAGES: u64 = 4; // 16 KiB
/// Pages of kernel stack.
pub const STACK_PAGES: u64 = 1; // 4 KiB
/// Pages for the x86 "manual flush" L1-D and L1-I buffers.
pub const FLUSH_BUF_PAGES: u64 = 8; // 32 KiB each

/// The kernel's virtual base address; every image is mapped here, so the
/// kernel switch happens implicitly with the page-directory switch (§4.3).
pub const KERNEL_VBASE: u64 = 0xffff_8000_0000;

/// Physical layout of one kernel image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageLayout {
    /// First frame of the image.
    pub base_pfn: u64,
}

impl ImageLayout {
    /// Total pages of a kernel image (text + rodata + data + stack + the
    /// two manual-flush buffers).
    #[must_use]
    pub fn total_pages() -> u64 {
        TEXT_PAGES + RODATA_PAGES + DATA_PAGES + STACK_PAGES + 2 * FLUSH_BUF_PAGES
    }

    /// Physical address of the text segment.
    #[must_use]
    pub fn text(&self) -> PAddr {
        PAddr(self.base_pfn * FRAME_SIZE)
    }

    /// Physical address of the read-only data segment.
    #[must_use]
    pub fn rodata(&self) -> PAddr {
        PAddr((self.base_pfn + TEXT_PAGES) * FRAME_SIZE)
    }

    /// Physical address of the replicated global data segment.
    #[must_use]
    pub fn data(&self) -> PAddr {
        PAddr((self.base_pfn + TEXT_PAGES + RODATA_PAGES) * FRAME_SIZE)
    }

    /// Physical address of the kernel stack.
    #[must_use]
    pub fn stack(&self) -> PAddr {
        PAddr((self.base_pfn + TEXT_PAGES + RODATA_PAGES + DATA_PAGES) * FRAME_SIZE)
    }

    /// Physical address of the manual L1-D flush buffer.
    #[must_use]
    pub fn l1d_buf(&self) -> PAddr {
        PAddr((self.base_pfn + TEXT_PAGES + RODATA_PAGES + DATA_PAGES + STACK_PAGES) * FRAME_SIZE)
    }

    /// Physical address of the manual L1-I flush buffer.
    #[must_use]
    pub fn l1i_buf(&self) -> PAddr {
        PAddr(
            (self.base_pfn
                + TEXT_PAGES
                + RODATA_PAGES
                + DATA_PAGES
                + STACK_PAGES
                + FLUSH_BUF_PAGES)
                * FRAME_SIZE,
        )
    }

    /// Kernel virtual address corresponding to physical `pa` inside this
    /// image (all images are mapped at [`KERNEL_VBASE`]).
    #[must_use]
    pub fn kva(&self, pa: PAddr) -> tp_sim::VAddr {
        tp_sim::VAddr(KERNEL_VBASE + (pa.0 - self.base_pfn * FRAME_SIZE))
    }

    /// All frames of the image.
    pub fn frames(&self) -> impl Iterator<Item = u64> {
        let base = self.base_pfn;
        (0..Self::total_pages()).map(move |i| base + i)
    }
}

/// The frames of a kernel image, section by section.
///
/// The boot image occupies contiguous physical memory, but a *cloned* image
/// lives in user-supplied `Kernel_Memory` drawn from a colour pool, whose
/// frame numbers form an arithmetic sequence (colours interleave every
/// page) — the kernel's own address space maps them virtually contiguous at
/// [`KERNEL_VBASE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageFrames {
    /// Text frames.
    pub text: Vec<u64>,
    /// Read-only data frames.
    pub rodata: Vec<u64>,
    /// Replicated global data frames.
    pub data: Vec<u64>,
    /// Stack frames.
    pub stack: Vec<u64>,
    /// Manual L1-D flush buffer frames.
    pub l1d_buf: Vec<u64>,
    /// Manual L1-I flush buffer frames.
    pub l1i_buf: Vec<u64>,
}

impl ImageFrames {
    /// Build from a contiguous region (the boot image).
    #[must_use]
    pub fn contiguous(base_pfn: u64) -> Self {
        let mut next = base_pfn;
        let mut take = |n: u64| {
            let v: Vec<u64> = (next..next + n).collect();
            next += n;
            v
        };
        ImageFrames {
            text: take(TEXT_PAGES),
            rodata: take(RODATA_PAGES),
            data: take(DATA_PAGES),
            stack: take(STACK_PAGES),
            l1d_buf: take(FLUSH_BUF_PAGES),
            l1i_buf: take(FLUSH_BUF_PAGES),
        }
    }

    /// Build from an arbitrary frame list (a cloned image).
    ///
    /// # Panics
    /// Panics if fewer than [`ImageLayout::total_pages`] frames are given.
    #[must_use]
    pub fn from_frames(frames: &[u64]) -> Self {
        assert!(
            frames.len() as u64 >= ImageLayout::total_pages(),
            "kernel memory too small: {} < {}",
            frames.len(),
            ImageLayout::total_pages()
        );
        let mut it = frames.iter().copied();
        let mut take = |n: u64| (0..n).map(|_| it.next().unwrap()).collect::<Vec<u64>>();
        ImageFrames {
            text: take(TEXT_PAGES),
            rodata: take(RODATA_PAGES),
            data: take(DATA_PAGES),
            stack: take(STACK_PAGES),
            l1d_buf: take(FLUSH_BUF_PAGES),
            l1i_buf: take(FLUSH_BUF_PAGES),
        }
    }

    /// Physical address of the `i`-th line of a section, given the
    /// platform line size. `PlatformConfig::validate` pins line sizes to
    /// powers of two, so the page and offset split is a shift and a mask.
    /// An index past the end of the section wraps.
    #[must_use]
    pub fn line_pa(section: &[u64], i: u64, line: u64) -> PAddr {
        debug_assert!(line.is_power_of_two() && line <= FRAME_SIZE);
        let line_shift = line.trailing_zeros();
        let per_page_shift = FRAME_SIZE.trailing_zeros() - line_shift;
        let page = (i >> per_page_shift) as usize;
        let page = if page < section.len() {
            page
        } else {
            page % section.len()
        };
        let offset = (i & ((1 << per_page_shift) - 1)) << line_shift;
        PAddr(section[page] * FRAME_SIZE + offset)
    }

    /// All frames of the image (used by destruction to return memory).
    #[must_use]
    pub fn all_frames(&self) -> Vec<u64> {
        let mut v = Vec::new();
        v.extend(&self.text);
        v.extend(&self.rodata);
        v.extend(&self.data);
        v.extend(&self.stack);
        v.extend(&self.l1d_buf);
        v.extend(&self.l1i_buf);
        v
    }

    /// Pages copied by `Kernel_Clone` (text, rodata, data, stack — the
    /// flush buffers need no copying, only allocation).
    #[must_use]
    pub fn copied_pages(&self) -> u64 {
        (self.text.len() + self.rodata.len() + self.data.len() + self.stack.len()) as u64
    }
}

/// One item of the §4.1 shared-data list.
#[derive(Debug, Clone, Copy)]
pub struct SharedItem {
    /// Item name as listed in the paper.
    pub name: &'static str,
    /// Size in bytes (per core where the paper says so).
    pub bytes: u64,
    /// Whether the item is only present on x86.
    pub x86_only: bool,
    /// Whether kernel access to this item is ever indexed by private user
    /// information (the audit property of §4.1: it must not be).
    pub user_indexed: bool,
}

/// The §4.1 audit list: data shared between all kernel images.
pub const SHARED_ITEMS: &[SharedItem] = &[
    SharedItem {
        name: "scheduler ready-queue head array",
        bytes: 4096,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "priority bitmap",
        bytes: 32,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "current scheduling decision",
        bytes: 8,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "IRQ state table",
        bytes: 1126,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "IRQ handler table",
        bytes: 1126,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "interrupt currently being handled",
        bytes: 8,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "first-level hardware ASID table",
        bytes: 1126,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "IO port control table",
        bytes: 2048,
        x86_only: true,
        user_indexed: false,
    },
    SharedItem {
        name: "current thread/cspace/kernel/idle/FPU-owner pointers",
        bytes: 40,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "SMP kernel lock",
        bytes: 8,
        x86_only: false,
        user_indexed: false,
    },
    SharedItem {
        name: "IPI barrier",
        bytes: 8,
        x86_only: false,
        user_indexed: false,
    },
];

/// The residual shared kernel data region, placed in the *boot* image's
/// data segment; all clones keep referencing it.
#[derive(Debug, Clone)]
pub struct SharedKernelData {
    base: PAddr,
    bytes: u64,
    line: u64,
    /// `bytes` in lines, kept so addressing a line takes no division.
    lines: u64,
}

impl SharedKernelData {
    /// Lay out the shared items starting at `base` for the given platform.
    #[must_use]
    pub fn new(base: PAddr, cfg: &PlatformConfig) -> Self {
        let x86 = cfg.llc.is_some();
        let bytes: u64 = SHARED_ITEMS
            .iter()
            .filter(|i| x86 || !i.x86_only)
            .map(|i| i.bytes)
            .sum();
        SharedKernelData {
            base,
            bytes,
            line: cfg.line,
            lines: bytes.div_ceil(cfg.line),
        }
    }

    /// Total shared bytes (≈ 9.5 KiB per core on x64, §4.1).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cache lines spanned.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Physical address of the `i`-th shared line (for prefetch and for
    /// kernel accesses during scheduling). An index past the end wraps.
    #[must_use]
    pub fn line_pa(&self, i: u64) -> PAddr {
        let i = if i < self.lines { i } else { i % self.lines };
        PAddr(self.base.0 + i * self.line)
    }

    /// The §4.1 audit: no shared item may be accessed through an index
    /// derived from private user information. Returns the offending items
    /// (empty in the shipped layout).
    #[must_use]
    pub fn audit() -> Vec<&'static str> {
        SHARED_ITEMS
            .iter()
            .filter(|i| i.user_indexed)
            .map(|i| i.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_sim::Platform;

    #[test]
    fn image_layout_is_contiguous_and_disjoint() {
        let img = ImageLayout { base_pfn: 100 };
        assert_eq!(img.text().pfn(), 100);
        assert_eq!(img.rodata().pfn(), 116);
        assert_eq!(img.data().pfn(), 120);
        assert_eq!(img.stack().pfn(), 124);
        assert_eq!(img.l1d_buf().pfn(), 125);
        assert_eq!(img.l1i_buf().pfn(), 133);
        assert_eq!(ImageLayout::total_pages(), 41);
        assert_eq!(img.frames().count() as u64, ImageLayout::total_pages());
    }

    #[test]
    fn shared_data_size_matches_section_4_1() {
        let cfg = Platform::Haswell.config();
        let sd = SharedKernelData::new(PAddr(0x1000), &cfg);
        // §4.1: "total of about 9.5 KiB" on x64.
        let kib = sd.bytes() as f64 / 1024.0;
        assert!((9.0..10.0).contains(&kib), "shared data {kib} KiB");
        // The Arm layout drops the IO-port table.
        let arm = SharedKernelData::new(PAddr(0x1000), &Platform::Sabre.config());
        assert!(arm.bytes() < sd.bytes());
    }

    #[test]
    fn audit_finds_no_user_indexed_items() {
        assert!(SharedKernelData::audit().is_empty());
    }

    #[test]
    fn kva_mapping_is_offset_preserving() {
        let img = ImageLayout { base_pfn: 100 };
        let pa = PAddr(img.text().0 + 0x123);
        assert_eq!(img.kva(pa).0, KERNEL_VBASE + 0x123);
    }

    #[test]
    fn line_pa_matches_division_form() {
        let section = [7u64, 3, 42];
        for p in Platform::ALL {
            let line = p.config().line;
            let per_page = FRAME_SIZE / line;
            for i in 0..4 * per_page * section.len() as u64 {
                let page = (i / per_page) as usize % section.len();
                let want = PAddr(section[page] * FRAME_SIZE + (i % per_page) * line);
                assert_eq!(
                    ImageFrames::line_pa(&section, i, line),
                    want,
                    "{} line {i}",
                    p.key()
                );
            }
        }
    }

    #[test]
    fn shared_lines_wrap() {
        let cfg = Platform::Haswell.config();
        let sd = SharedKernelData::new(PAddr(0x1000), &cfg);
        let n = sd.lines();
        assert_eq!(sd.line_pa(0), sd.line_pa(n));
    }
}
