//! Supervision transparency: with no fault plan armed, the campaign
//! supervisor must be a byte-level no-op. The channel results a
//! supervised cell produces — and therefore the verdict table, the
//! results JSON and the pinned goldens derived from them — are identical
//! to calling the experiment function directly on the test thread.
//!
//! This is what licenses running *every* campaign cell under the
//! supervisor: the fault-free path runs on the calling thread and changes
//! nothing observable.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;
use tp_bench::campaign::{golden_json, registry, results_json, ChannelResult, ExperimentResult};
use tp_bench::supervise::{self, run_cell, CellOutcome, CellReport};
use tp_sim::Platform;

/// The cheap (cost-weight 2) registry experiments the property samples
/// from. Transparency is a property of the supervisor, not the
/// experiment, so the cheapest cells prove it just as well.
const CHEAP: &[&str] = &["tlb", "btb", "bhb"];

/// Identity must hold at any sample scale, so the property runs at the
/// cheapest one. Each file under `tests/` is its own process and its own
/// test binary, so the override cannot leak into other suites; `Once`
/// ensures the write happens before any test thread reads the variable.
fn init_scale() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("TP_SAMPLES", "0.05"));
}

/// One computed identity cell: the unsupervised (direct-call) channels
/// and the supervised report for the same (experiment, platform) pair.
struct CellPair {
    direct: Vec<ChannelResult>,
    report: CellReport,
}

type Memo = Mutex<BTreeMap<(&'static str, &'static str), &'static CellPair>>;

/// Each (experiment, platform) pair is computed once — direct run and
/// supervised run back to back — and every proptest case that draws the
/// same pair re-asserts on the cached outcome. 64 cases over a 3×4 grid
/// would otherwise repeat the same simulations dozens of times.
fn cell_pair(name: &'static str, platform: Platform) -> &'static CellPair {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Memo::default);
    let mut map = memo.lock().expect("memo poisoned");
    map.entry((name, platform.key())).or_insert_with(|| {
        let def = registry()
            .into_iter()
            .find(|d| d.name == name)
            .expect("experiment in registry");
        let run = def.run;
        let direct = run(platform).expect("direct (unsupervised) run");
        let report = run_cell(
            name,
            platform.key(),
            None,
            Duration::from_secs(600),
            move || run(platform),
        );
        Box::leak(Box::new(CellPair { direct, report }))
    })
}

/// Serialise one cell's channels exactly as `reproduce_all --json` would (wall
/// time pinned so only the measurements matter).
fn cell_json(name: &'static str, platform: Platform, channels: Vec<ChannelResult>) -> String {
    results_json(
        &[ExperimentResult {
            experiment: name,
            platform,
            seconds: 0.0,
            channels,
        }],
        0.0,
    )
}

fn assert_transparent(name: &'static str, platform: Platform) {
    let pair = cell_pair(name, platform);
    assert_eq!(
        pair.report.outcome,
        CellOutcome::Ok,
        "{name}/{}",
        platform.key()
    );
    assert_eq!(pair.report.attempts, 1, "healthy cell must not retry");
    assert_eq!(pair.report.error, None);
    let supervised = pair
        .report
        .channels
        .clone()
        .expect("Ok report carries channels");
    // Byte-identical through every serialisation the campaign emits: the
    // results JSON and the golden verdict file.
    assert_eq!(
        cell_json(name, platform, pair.direct.clone()),
        cell_json(name, platform, supervised.clone()),
        "results JSON must not change under supervision"
    );
    let golden = |channels| {
        golden_json(&[ExperimentResult {
            experiment: name,
            platform,
            seconds: 0.0,
            channels,
        }])
    };
    assert_eq!(
        golden(pair.direct.clone()),
        golden(supervised),
        "golden verdicts must not change under supervision"
    );
}

proptest! {
    /// Any cheap experiment on any platform: supervised (empty fault
    /// plan) and unsupervised runs are byte-identical.
    #[test]
    fn supervised_cell_is_byte_identical_to_unsupervised(
        platform in proptest::sample::select(Platform::ALL),
        exp in 0usize..CHEAP.len(),
    ) {
        init_scale();
        assert_transparent(CHEAP[exp], platform);
    }
}

/// The full platform axis, deterministically: the identity holds on all
/// four registered platforms (the property above covers them with
/// overwhelming probability; this pins it).
#[test]
fn transparent_on_every_platform() {
    init_scale();
    for p in Platform::ALL {
        assert_transparent("tlb", p);
    }
}

/// A fault-free suite never trips the supervisor's failure accounting:
/// nothing in this process injects faults, so the global counters that
/// feed `BENCH.json`'s `supervisor` object all stay zero.
#[test]
fn healthy_cells_leave_the_counters_untouched() {
    init_scale();
    for &name in CHEAP {
        assert_transparent(name, Platform::Haswell);
    }
    let c = supervise::counters();
    assert_eq!(
        (
            c.retries,
            c.timeouts,
            c.panics,
            c.quarantined,
            c.env_failed,
            c.deadlocks
        ),
        (0, 0, 0, 0, 0, 0),
        "healthy campaign must report a clean supervisor line"
    );
}
