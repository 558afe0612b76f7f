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

/// Total pages of a kernel image (text + rodata + data + stack + the two
/// manual-flush buffers).
pub const IMAGE_PAGES: u64 =
    TEXT_PAGES + RODATA_PAGES + DATA_PAGES + STACK_PAGES + 2 * FLUSH_BUF_PAGES;

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
    /// Panics if fewer than [`IMAGE_PAGES`] frames are given.
    #[must_use]
    pub fn from_frames(frames: &[u64]) -> Self {
        assert!(
            frames.len() as u64 >= IMAGE_PAGES,
            "kernel memory too small: {} < {IMAGE_PAGES}",
            frames.len(),
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
        let img = ImageFrames::contiguous(100);
        let sections = [
            &img.text,
            &img.rodata,
            &img.data,
            &img.stack,
            &img.l1d_buf,
            &img.l1i_buf,
        ];
        let starts: Vec<u64> = sections.iter().map(|s| s[0]).collect();
        assert_eq!(starts, [100, 116, 120, 124, 125, 133]);
        assert_eq!(IMAGE_PAGES, 41);
        assert_eq!(
            img.all_frames(),
            (100..100 + IMAGE_PAGES).collect::<Vec<_>>()
        );
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
