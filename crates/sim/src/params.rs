//! The platform registry — geometry and latency tables.
//!
//! Platforms are *data*: a [`PlatformConfig`] fully describes a simulated
//! machine, and everything downstream (kernel, attacks, benches) sizes
//! itself off that geometry. The [`Platform`] enum survives only as the
//! registry key; [`Platform::ALL`] enumerates every registered platform so
//! new entries automatically appear in every table and experiment.
//!
//! The first two entries mirror Table 1 of the paper: a Haswell Core
//! i7-4770 ("x86") and an i.MX6 Sabre board with a Cortex-A9 ("Arm"). The
//! other two extend the matrix: a Skylake-class server part (larger
//! non-inclusive LLC, twice the partition colours) and a HiKey LeMaker
//! board (Cortex-A53, the Armv8 platform of the authors' follow-up work).
//! Latencies are representative documented/measured values for these
//! parts; the paper's results depend on their *relative* magnitudes
//! (L1 ≪ L2 ≪ LLC ≪ DRAM, mispredict ≫ predicted branch), which these
//! tables preserve.

/// Registry key for an evaluation platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Intel Core i7-4770 (Haswell), 4 cores, 3.4 GHz.
    Haswell,
    /// NXP i.MX6Q Sabre (Cortex-A9), 4 cores, 0.8 GHz.
    Sabre,
    /// Skylake-class Xeon: private 1 MiB L2, non-inclusive sliced LLC.
    Skylake,
    /// HiKey LeMaker (Cortex-A53, Armv8), 8 cores, 1.2 GHz.
    HiKey,
}

impl Platform {
    /// Every registered platform, in table order. Iterate this — never a
    /// hand-written platform list — so new registry entries appear in
    /// every experiment automatically.
    pub const ALL: [Platform; 4] = [
        Platform::Haswell,
        Platform::Sabre,
        Platform::Skylake,
        Platform::HiKey,
    ];

    /// The two platforms evaluated in the paper itself (golden results are
    /// pinned against these).
    pub const PAPER: [Platform; 2] = [Platform::Haswell, Platform::Sabre];

    /// Human-readable platform name as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Platform::Haswell => "x86 (Haswell)",
            Platform::Sabre => "Arm (Sabre)",
            Platform::Skylake => "x86 (Skylake)",
            Platform::HiKey => "Armv8 (HiKey)",
        }
    }

    /// Short column label for tables.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            Platform::Haswell => "x86",
            Platform::Sabre => "Arm",
            Platform::Skylake => "Sky",
            Platform::HiKey => "A53",
        }
    }

    /// Stable machine-readable key (CLI `--platform` values, JSON output).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Platform::Haswell => "haswell",
            Platform::Sabre => "sabre",
            Platform::Skylake => "skylake",
            Platform::HiKey => "hikey",
        }
    }

    /// Look a platform up by its [`Platform::key`].
    #[must_use]
    pub fn from_key(key: &str) -> Option<Platform> {
        Platform::ALL.into_iter().find(|p| p.key() == key)
    }

    /// Build the full configuration for this platform (the registry
    /// lookup).
    #[must_use]
    pub fn config(self) -> PlatformConfig {
        match self {
            Platform::Haswell => PlatformConfig::haswell(),
            Platform::Sabre => PlatformConfig::sabre(),
            Platform::Skylake => PlatformConfig::skylake(),
            Platform::HiKey => PlatformConfig::hikey(),
        }
    }
}

impl From<Platform> for PlatformConfig {
    fn from(p: Platform) -> PlatformConfig {
        p.config()
    }
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u64,
}

impl CacheGeom {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size / (self.line * u64::from(self.ways))
    }

    /// Total number of lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size / self.line
    }

    /// Number of page colours this cache supports: `S / (w * P)`.
    ///
    /// This is the formula from §2.3 of the paper; a page can only ever
    /// reside in the cache section selected by the overlap of set-selector
    /// and page-number bits.
    #[must_use]
    pub fn colors(&self, page: u64) -> u64 {
        (self.size / (u64::from(self.ways) * page)).max(1)
    }
}

/// Geometry of a TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeom {
    /// Total number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
}

impl TlbGeom {
    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// Cycle-latency table for a platform.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency (miss in L1).
    pub l2_hit: u64,
    /// LLC hit latency (x86 only; `l2_hit` doubles as LLC on Arm).
    pub llc_hit: u64,
    /// DRAM access latency.
    pub dram: u64,
    /// Cost of writing back one dirty line.
    pub writeback: u64,
    /// Added latency when the second-level TLB hits (first level missed).
    pub tlb_l2: u64,
    /// Added latency of a full page-table walk.
    pub tlb_walk: u64,
    /// Branch direction misprediction penalty.
    pub mispredict: u64,
    /// Penalty for a taken branch missing the BTB.
    pub btb_miss: u64,
    /// Per-competing-access bus contention penalty on a DRAM access.
    pub bus_contend: u64,
    /// Cost of a user->kernel->user mode crossing (syscall entry + exit).
    pub mode_switch: u64,
    /// Per-jump cost of the "manual" chained-jump L1-I flush (x86 only):
    /// every jump in the chain is mispredicted and misses the L1-I.
    pub manual_jump: u64,
    /// Fixed cost of an architected per-line cache maintenance operation
    /// (e.g. Arm `DCCISW`), excluding the write-back of dirty data.
    pub maint_per_line: u64,
}

/// Full description of a simulated platform.
///
/// Configurations are plain `Copy` data and travel by value: the kernel,
/// the attacks and the bench harness all size themselves off this geometry
/// rather than matching on [`Platform`].
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Which platform this is.
    pub platform: Platform,
    /// Number of cores.
    pub cores: usize,
    /// Clock frequency in MHz, i.e. cycles per microsecond.
    pub freq_mhz: u64,
    /// Cache line size in bytes.
    pub line: u64,
    /// L1 data cache.
    pub l1d: CacheGeom,
    /// L1 instruction cache.
    pub l1i: CacheGeom,
    /// Unified L2 cache (per-core on x86; shared LLC on Arm).
    pub l2: CacheGeom,
    /// Shared L3/LLC (x86 only).
    pub llc: Option<CacheGeom>,
    /// Number of LLC slices (hash-distributed) on x86.
    pub llc_slices: u32,
    /// Instruction TLB.
    pub itlb: TlbGeom,
    /// Data TLB.
    pub dtlb: TlbGeom,
    /// Unified second-level TLB.
    pub stlb: TlbGeom,
    /// BTB geometry (entries, ways).
    pub btb: TlbGeom,
    /// log2 of the pattern-history-table size.
    pub pht_bits: u32,
    /// Branch global-history length in bits.
    pub ghr_bits: u32,
    /// Number of stream-prefetcher entries.
    pub dpf_entries: usize,
    /// Latency table.
    pub lat: Latency,
    /// Probability (in 1/256 units) that an L1 victim choice deviates from
    /// strict LRU — models the undocumented pseudo-LRU policies that make
    /// the paper's "manual" flush brittle (footnote 6).
    pub l1_plru_noise: u8,
    /// Page size in bytes.
    pub page: u64,
    /// The Requirement-4 switch padding (µs) that provably exceeds the
    /// worst-case domain-switch latency on this platform (Table 4's pad
    /// values for the paper platforms; measured analogues for the rest).
    pub switch_pad_us: f64,
}

impl PlatformConfig {
    /// The Haswell configuration (paper Table 1).
    #[must_use]
    pub fn haswell() -> Self {
        PlatformConfig {
            platform: Platform::Haswell,
            cores: 4,
            freq_mhz: 3400,
            line: 64,
            l1d: CacheGeom {
                size: 32 * 1024,
                ways: 8,
                line: 64,
            },
            l1i: CacheGeom {
                size: 32 * 1024,
                ways: 8,
                line: 64,
            },
            l2: CacheGeom {
                size: 256 * 1024,
                ways: 8,
                line: 64,
            },
            llc: Some(CacheGeom {
                size: 8 * 1024 * 1024,
                ways: 16,
                line: 64,
            }),
            llc_slices: 4,
            itlb: TlbGeom {
                entries: 64,
                ways: 8,
            },
            dtlb: TlbGeom {
                entries: 64,
                ways: 4,
            },
            stlb: TlbGeom {
                entries: 1024,
                ways: 8,
            },
            btb: TlbGeom {
                entries: 4096,
                ways: 4,
            },
            pht_bits: 14,
            ghr_bits: 16,
            dpf_entries: 32,
            lat: Latency {
                l1_hit: 4,
                l2_hit: 12,
                llc_hit: 42,
                dram: 200,
                writeback: 6,
                tlb_l2: 8,
                tlb_walk: 36,
                mispredict: 16,
                btb_miss: 9,
                bus_contend: 24,
                mode_switch: 150,
                manual_jump: 170,
                maint_per_line: 4,
            },
            l1_plru_noise: 18,
            page: 4096,
            switch_pad_us: 58.8,
        }
    }

    /// The Sabre (Cortex-A9) configuration (paper Table 1).
    #[must_use]
    pub fn sabre() -> Self {
        PlatformConfig {
            platform: Platform::Sabre,
            cores: 4,
            freq_mhz: 800,
            line: 32,
            l1d: CacheGeom {
                size: 32 * 1024,
                ways: 4,
                line: 32,
            },
            l1i: CacheGeom {
                size: 32 * 1024,
                ways: 4,
                line: 32,
            },
            l2: CacheGeom {
                size: 1024 * 1024,
                ways: 16,
                line: 32,
            },
            llc: None,
            llc_slices: 1,
            itlb: TlbGeom {
                entries: 32,
                ways: 1,
            },
            dtlb: TlbGeom {
                entries: 32,
                ways: 1,
            },
            stlb: TlbGeom {
                entries: 128,
                ways: 2,
            },
            btb: TlbGeom {
                entries: 512,
                ways: 2,
            },
            pht_bits: 12,
            ghr_bits: 8,
            dpf_entries: 0,
            lat: Latency {
                l1_hit: 3,
                l2_hit: 26,
                llc_hit: 26,
                dram: 110,
                writeback: 10,
                tlb_l2: 10,
                tlb_walk: 40,
                mispredict: 12,
                btb_miss: 6,
                bus_contend: 16,
                mode_switch: 180,
                manual_jump: 0,
                maint_per_line: 5,
            },
            l1_plru_noise: 0,
            page: 4096,
            switch_pad_us: 62.5,
        }
    }

    /// A Skylake-class Xeon: private 1 MiB L2 (16 partition colours, twice
    /// Haswell's 8) in front of a larger *non-inclusive* sliced LLC. The
    /// non-inclusive LLC changes nothing for the simulator's dirty-line
    /// accounting but is why the part leans even harder on L2 colouring;
    /// like every x86, it has no architected L1 flush (manual flush +
    /// pseudo-LRU noise).
    #[must_use]
    pub fn skylake() -> Self {
        PlatformConfig {
            platform: Platform::Skylake,
            cores: 4,
            freq_mhz: 3600,
            line: 64,
            l1d: CacheGeom {
                size: 32 * 1024,
                ways: 8,
                line: 64,
            },
            l1i: CacheGeom {
                size: 32 * 1024,
                ways: 8,
                line: 64,
            },
            l2: CacheGeom {
                size: 1024 * 1024,
                ways: 16,
                line: 64,
            },
            llc: Some(CacheGeom {
                size: 11 * 1024 * 1024,
                ways: 11,
                line: 64,
            }),
            llc_slices: 8,
            itlb: TlbGeom {
                entries: 128,
                ways: 8,
            },
            dtlb: TlbGeom {
                entries: 64,
                ways: 4,
            },
            stlb: TlbGeom {
                entries: 1536,
                ways: 12,
            },
            btb: TlbGeom {
                entries: 4096,
                ways: 4,
            },
            pht_bits: 15,
            ghr_bits: 18,
            dpf_entries: 32,
            lat: Latency {
                l1_hit: 4,
                l2_hit: 14,
                llc_hit: 50,
                dram: 190,
                writeback: 6,
                tlb_l2: 9,
                tlb_walk: 40,
                mispredict: 17,
                btb_miss: 9,
                bus_contend: 22,
                mode_switch: 140,
                manual_jump: 160,
                maint_per_line: 4,
            },
            l1_plru_noise: 18,
            page: 4096,
            switch_pad_us: 58.8,
        }
    }

    /// The HiKey LeMaker board (8× Cortex-A53, Armv8): the platform of the
    /// authors' follow-up work. Shared 512 KiB L2 as the LLC, tiny
    /// first-level micro-TLBs backed by a 512-entry main TLB, and
    /// architected set/way cache maintenance (no manual-flush
    /// brittleness).
    #[must_use]
    pub fn hikey() -> Self {
        PlatformConfig {
            platform: Platform::HiKey,
            cores: 8,
            freq_mhz: 1200,
            line: 64,
            l1d: CacheGeom {
                size: 32 * 1024,
                ways: 4,
                line: 64,
            },
            l1i: CacheGeom {
                size: 32 * 1024,
                ways: 2,
                line: 64,
            },
            l2: CacheGeom {
                size: 512 * 1024,
                ways: 16,
                line: 64,
            },
            llc: None,
            llc_slices: 1,
            itlb: TlbGeom {
                entries: 10,
                ways: 10,
            },
            dtlb: TlbGeom {
                entries: 10,
                ways: 10,
            },
            stlb: TlbGeom {
                entries: 512,
                ways: 4,
            },
            btb: TlbGeom {
                entries: 256,
                ways: 2,
            },
            pht_bits: 12,
            ghr_bits: 8,
            dpf_entries: 0,
            lat: Latency {
                l1_hit: 3,
                l2_hit: 16,
                llc_hit: 16,
                dram: 140,
                writeback: 9,
                tlb_l2: 8,
                tlb_walk: 34,
                mispredict: 8,
                btb_miss: 5,
                bus_contend: 14,
                mode_switch: 170,
                manual_jump: 0,
                maint_per_line: 4,
            },
            l1_plru_noise: 0,
            page: 4096,
            switch_pad_us: 70.0,
        }
    }

    /// Number of page colours of the cache used for partitioning.
    ///
    /// On x86 the paper colours by the (smaller) per-core L2, which
    /// implicitly colours the LLC (§5.4.4); on Arm the L2 *is* the LLC.
    #[must_use]
    pub fn partition_colors(&self) -> u64 {
        self.l2.colors(self.page)
    }

    /// Number of colours of the last-level cache (per slice on x86).
    #[must_use]
    pub fn llc_colors(&self) -> u64 {
        match self.llc {
            Some(llc) => {
                let per_slice = CacheGeom {
                    size: llc.size / u64::from(self.llc_slices),
                    ..llc
                };
                per_slice.colors(self.page)
            }
            None => self.l2.colors(self.page),
        }
    }

    /// Convert microseconds to cycles on this platform.
    #[must_use]
    pub fn us_to_cycles(&self, us: f64) -> u64 {
        (us * self.freq_mhz as f64) as u64
    }

    /// Convert cycles to microseconds on this platform.
    #[must_use]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_mhz as f64
    }

    /// Check the structural invariants every registered platform must
    /// satisfy. Returns every violation (empty = valid).
    ///
    /// * every cache, TLB and BTB level has at least one way and at most
    ///   [`crate::cache::MAX_WAYS`];
    /// * every cache level has a power-of-two set count, at least one
    ///   page colour, and the platform-wide line size;
    /// * every TLB/BTB level's entries are a positive multiple of its ways,
    ///   in a power-of-two number of sets;
    /// * the LLC, if any, has a power-of-two number of slices;
    /// * latencies are ordered `L1 ≤ L2 ≤ LLC ≤ DRAM`;
    /// * clock, core count, page size and switch padding are sane.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let levels = [
            ("L1-D", self.l1d.ways),
            ("L1-I", self.l1i.ways),
            ("L2", self.l2.ways),
            ("LLC", self.llc.map_or(1, |g| g.ways)),
            ("I-TLB", self.itlb.ways),
            ("D-TLB", self.dtlb.ways),
            ("L2-TLB", self.stlb.ways),
            ("BTB", self.btb.ways),
        ];
        let zero_ways: Vec<String> = levels
            .into_iter()
            .filter(|&(_, ways)| ways == 0)
            .map(|(name, _)| format!("{name}: zero ways"))
            .collect();
        if !zero_ways.is_empty() {
            return zero_ways; // every check below divides by a way count
        }
        let mut errs = Vec::new();
        let mut err = |cond: bool, msg: String| {
            if !cond {
                errs.push(msg);
            }
        };
        for (name, ways) in levels {
            err(
                ways <= crate::cache::MAX_WAYS,
                format!(
                    "{name}: {ways} ways (a set's recency order holds at most {})",
                    crate::cache::MAX_WAYS
                ),
            );
        }
        let caches: Vec<(&str, CacheGeom)> = [
            Some(("L1-D", self.l1d)),
            Some(("L1-I", self.l1i)),
            Some(("L2", self.l2)),
            self.llc.map(|g| ("LLC", g)),
        ]
        .into_iter()
        .flatten()
        .collect();
        for (name, g) in &caches {
            err(
                g.sets().is_power_of_two(),
                format!("{name}: {} sets not a power of two", g.sets()),
            );
            err(
                g.colors(self.page) >= 1,
                format!("{name}: zero page colours"),
            );
            err(
                g.line == self.line,
                format!("{name}: line {} != platform line {}", g.line, self.line),
            );
            err(
                g.size % (g.line * u64::from(g.ways)) == 0,
                format!("{name}: size not set-aligned"),
            );
        }
        for (name, t) in [
            ("I-TLB", self.itlb),
            ("D-TLB", self.dtlb),
            ("L2-TLB", self.stlb),
            ("BTB", self.btb),
        ] {
            err(
                t.entries > 0 && t.entries % t.ways == 0,
                format!(
                    "{name}: {} entries not a positive multiple of {} ways",
                    t.entries, t.ways
                ),
            );
            err(
                t.sets().is_power_of_two(),
                format!("{name}: {} sets not a power of two", t.sets()),
            );
        }
        if let Some(llc) = self.llc {
            err(
                self.llc_slices.is_power_of_two(),
                format!("LLC: {} slices not a power of two", self.llc_slices),
            );
            err(
                llc.size % u64::from(self.llc_slices.max(1)) == 0,
                "LLC size not divisible by slice count".into(),
            );
        }
        let l = &self.lat;
        err(
            l.l1_hit <= l.l2_hit,
            format!("L1 hit {} > L2 hit {}", l.l1_hit, l.l2_hit),
        );
        err(
            l.l2_hit <= l.llc_hit,
            format!("L2 hit {} > LLC hit {}", l.l2_hit, l.llc_hit),
        );
        err(
            l.llc_hit <= l.dram,
            format!("LLC hit {} > DRAM {}", l.llc_hit, l.dram),
        );
        err(self.freq_mhz > 0, "zero clock frequency".into());
        err(self.cores >= 1, "no cores".into());
        err(
            self.page.is_power_of_two(),
            format!("page size {} not a power of two", self.page),
        );
        err(
            self.line.is_power_of_two() && self.line <= self.page,
            format!("line size {} not a power of two within a page", self.line),
        );
        err(
            self.switch_pad_us > 0.0,
            "non-positive switch padding".into(),
        );
        err(self.partition_colors() >= 1, "no partition colours".into());
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_geometry_matches_table1() {
        let c = PlatformConfig::haswell();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.unwrap().sets(), 8192);
        // §2.3: colours = S / (w P). Haswell L2: 256K/(8*4K) = 8.
        assert_eq!(c.partition_colors(), 8);
        // §6.1: "32 vs 8 colours on our Haswell" — LLC per-slice colours.
        assert_eq!(c.llc_colors(), 32);
    }

    #[test]
    fn sabre_geometry_matches_table1() {
        let c = PlatformConfig::sabre();
        assert_eq!(c.l1d.sets(), 256);
        assert_eq!(c.l2.sets(), 2048);
        assert!(c.llc.is_none());
        // Sabre L2: 1M/(16*4K) = 16 colours.
        assert_eq!(c.partition_colors(), 16);
        assert_eq!(c.llc_colors(), 16);
    }

    #[test]
    fn unit_conversions_roundtrip() {
        let c = PlatformConfig::haswell();
        assert_eq!(c.us_to_cycles(1.0), 3400);
        assert!((c.cycles_to_us(3400) - 1.0).abs() < 1e-9);
        let a = PlatformConfig::sabre();
        assert_eq!(a.us_to_cycles(10.0), 8000);
    }

    #[test]
    fn colors_never_zero() {
        // Even a single-colour cache reports one colour.
        let g = CacheGeom {
            size: 32 * 1024,
            ways: 8,
            line: 64,
        };
        assert_eq!(g.colors(4096), 1);
    }

    #[test]
    fn skylake_doubles_haswell_partition_colors() {
        let c = PlatformConfig::skylake();
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.partition_colors(), 16);
        assert_eq!(c.llc.unwrap().sets(), 16384);
        // Non-inclusive 11 MiB LLC across 8 slices: 32 colours per slice.
        assert_eq!(c.llc_colors(), 32);
    }

    #[test]
    fn hikey_geometry() {
        let c = PlatformConfig::hikey();
        assert!(c.llc.is_none(), "the A53 L2 is the LLC");
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.partition_colors(), 8);
        assert_eq!(c.dtlb.sets(), 1, "micro-TLB is fully associative");
    }

    #[test]
    fn registry_covers_all_and_keys_roundtrip() {
        assert_eq!(Platform::ALL.len(), 4);
        assert_eq!(Platform::PAPER, [Platform::Haswell, Platform::Sabre]);
        for p in Platform::ALL {
            assert_eq!(Platform::from_key(p.key()), Some(p));
            assert_eq!(p.config().platform, p);
        }
        assert_eq!(Platform::from_key("epyc"), None);
    }

    /// A zero-way level is reported, not a division-by-zero panic inside
    /// `validate` itself.
    #[test]
    fn validate_rejects_zero_ways() {
        let broken: [fn(&mut PlatformConfig); 6] = [
            |c| c.l1d.ways = 0,
            |c| c.l2.ways = 0,
            |c| c.itlb.ways = 0,
            |c| c.dtlb.ways = 0,
            |c| c.stlb.ways = 0,
            |c| c.btb.ways = 0,
        ];
        for p in Platform::ALL {
            for (i, set) in broken.iter().enumerate() {
                let mut c = p.config();
                set(&mut c);
                let errs = c.validate();
                assert!(
                    errs.iter().any(|e| e.ends_with("zero ways")),
                    "{} case {i}: {errs:?}",
                    p.key()
                );
            }
        }
    }

    /// A cache, TLB or BTB level wider than a set's recency order can
    /// encode is reported; the bound itself is accepted.
    #[test]
    fn validate_rejects_more_than_max_ways() {
        use crate::cache::MAX_WAYS;
        for level in 0..8 {
            for (ways, rejected) in [(MAX_WAYS, false), (MAX_WAYS + 1, true), (32, true)] {
                let mut c = Platform::Haswell.config();
                // Keep the set count, so the way bound is the only
                // possible complaint about the level.
                if level < 4 {
                    let g = [&mut c.l1d, &mut c.l1i, &mut c.l2]
                        .into_iter()
                        .chain(c.llc.as_mut())
                        .nth(level)
                        .unwrap();
                    let sets = g.sets();
                    g.ways = ways;
                    g.size = sets * g.line * u64::from(ways);
                } else {
                    let t = [&mut c.itlb, &mut c.dtlb, &mut c.stlb, &mut c.btb]
                        .into_iter()
                        .nth(level - 4)
                        .unwrap();
                    t.entries = t.sets() * ways;
                    t.ways = ways;
                }
                let errs = c.validate();
                assert_eq!(
                    errs.iter().any(|e| e.contains(&format!("{ways} ways ("))),
                    rejected,
                    "level {level}, {ways} ways: {errs:?}"
                );
            }
        }
    }

    /// A TLB or BTB whose entries do not fill whole sets is reported
    /// instead of being modelled at another size.
    #[test]
    fn validate_rejects_tlb_entries_not_a_multiple_of_ways() {
        for (entries, ways) in [(10, 4), (2, 4), (0, 4)] {
            for level in 0..4 {
                let mut c = Platform::Haswell.config();
                let t = [&mut c.itlb, &mut c.dtlb, &mut c.stlb, &mut c.btb]
                    .into_iter()
                    .nth(level)
                    .unwrap();
                *t = TlbGeom { entries, ways };
                let errs = c.validate();
                assert!(
                    errs.iter()
                        .any(|e| e.contains("entries not a positive multiple of 4 ways")),
                    "level {level}, {entries} entries: {errs:?}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_non_power_of_two_llc_slices() {
        let mut c = Platform::Skylake.config();
        c.llc_slices = 6;
        let errs = c.validate();
        assert!(
            errs.iter().any(|e| e == "LLC: 6 slices not a power of two"),
            "{errs:?}"
        );
    }

    #[test]
    fn every_registered_platform_validates() {
        for p in Platform::ALL {
            let errs = p.config().validate();
            assert!(errs.is_empty(), "{}: {errs:?}", p.key());
        }
    }
}
