//! Time-protection configuration.
//!
//! Time protection is "a collection of OS mechanisms which jointly prevent
//! interference between security domains" (§3.2). Each mechanism maps to a
//! field of [`ProtectionConfig`]; the paper's three evaluation scenarios
//! (§5.2: *raw*, *protected*, *full flush*) are provided as presets.

/// How much micro-architectural state the kernel flushes on a domain switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// No flushing (the *raw* scenario).
    None,
    /// Flush on-core state only (Requirement 1): L1-D, L1-I, TLBs, branch
    /// predictor. The *protected* scenario; physically-indexed caches are
    /// handled by colouring instead.
    OnCore,
    /// Maximal architecture-supported reset: full cache hierarchy
    /// (`wbinvd` on x86; L1 + L2 clean/invalidate on Arm), branch predictor
    /// and data prefetcher disabled. The *full flush* scenario.
    Full,
}

/// Configuration of the time-protection mechanism suite.
///
/// `Copy`: the config is a handful of flags, so it travels by value inside
/// [`crate::system::SystemSpec`] and across experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectionConfig {
    /// Partition user memory (and hence all dynamically allocated kernel
    /// data, §2.4) by page colour.
    pub color_userland: bool,
    /// Give each domain a cloned kernel image (Requirement 2).
    pub clone_kernel: bool,
    /// Flushing policy on domain switch (Requirements 1 and 4).
    pub flush: FlushMode,
    /// Pad the domain switch to this many microseconds measured from the
    /// preemption interrupt (Requirement 4). `None` disables padding.
    pub pad_us: Option<f64>,
    /// Partition interrupts between kernel images (Requirement 5).
    pub irq_partition: bool,
    /// Deterministically prefetch the residual shared kernel data before
    /// returning to userland (Requirement 3).
    pub prefetch_shared: bool,
    /// Disable the data prefetcher (the §5.3.2 follow-up experiment that
    /// shrinks the residual x86 L2 channel).
    pub disable_data_prefetcher: bool,
    /// Whether the kernel maps its own text/data with *global* TLB entries.
    /// Only possible with a single kernel image; any clone-capable
    /// ("colour-ready") kernel must use per-ASID kernel mappings, which is
    /// the source of the Arm IPC overhead in Table 5.
    pub kernel_global_mappings: bool,
}

impl ProtectionConfig {
    /// The unmitigated baseline: one shared kernel, no colouring, no
    /// flushing — mainline seL4.
    #[must_use]
    pub fn raw() -> Self {
        ProtectionConfig {
            color_userland: false,
            clone_kernel: false,
            flush: FlushMode::None,
            pad_us: None,
            irq_partition: false,
            prefetch_shared: false,
            disable_data_prefetcher: false,
            kernel_global_mappings: true,
        }
    }

    /// Full time protection: coloured userland, cloned kernels, on-core
    /// flush, shared-data prefetch and interrupt partitioning. Padding is
    /// off by default (it is policy; see [`ProtectionConfig::with_pad_us`]).
    #[must_use]
    pub fn protected() -> Self {
        ProtectionConfig {
            color_userland: true,
            clone_kernel: true,
            flush: FlushMode::OnCore,
            pad_us: None,
            irq_partition: true,
            prefetch_shared: true,
            disable_data_prefetcher: false,
            kernel_global_mappings: false,
        }
    }

    /// The *full flush* comparison scenario: maximal architected reset on
    /// every switch, no colouring or cloning.
    #[must_use]
    pub fn full_flush() -> Self {
        ProtectionConfig {
            color_userland: false,
            clone_kernel: false,
            flush: FlushMode::Full,
            pad_us: None,
            irq_partition: true,
            prefetch_shared: false,
            disable_data_prefetcher: true,
            kernel_global_mappings: true,
        }
    }

    /// A kernel *capable* of cloning (non-global kernel mappings) that does
    /// not use any protection — Table 5's "colour-ready" row.
    #[must_use]
    pub fn colour_ready() -> Self {
        ProtectionConfig {
            kernel_global_mappings: false,
            ..ProtectionConfig::raw()
        }
    }

    /// Builder-style: set the padding latency in microseconds.
    #[must_use]
    pub fn with_pad_us(mut self, pad: f64) -> Self {
        self.pad_us = Some(pad);
        self
    }

    /// Builder-style: disable the data prefetcher.
    #[must_use]
    pub fn with_prefetcher_disabled(mut self) -> Self {
        self.disable_data_prefetcher = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let raw = ProtectionConfig::raw();
        assert!(raw.kernel_global_mappings);

        let p = ProtectionConfig::protected();
        assert!(p.clone_kernel && p.color_userland && p.irq_partition);
        assert!(!p.kernel_global_mappings, "clones forbid global mappings");
        assert_eq!(p.flush, FlushMode::OnCore);

        let f = ProtectionConfig::full_flush();
        assert_eq!(f.flush, FlushMode::Full);
        assert!(f.disable_data_prefetcher);

        let cr = ProtectionConfig::colour_ready();
        assert!(!cr.kernel_global_mappings);
        assert_eq!(cr.flush, FlushMode::None);
    }

    #[test]
    fn pad_builder() {
        let p = ProtectionConfig::protected().with_pad_us(58.8);
        assert_eq!(p.pad_us, Some(58.8));
    }
}
