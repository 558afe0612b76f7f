//! Durability properties of the campaign store (`tp_bench::store`):
//! arbitrary journal damage never changes final campaign results, and a
//! cell replayed from the journal re-serialises byte-identically.

use proptest::prelude::*;
use std::sync::OnceLock;
use tp_bench::campaign::{golden_json, results_json, ChannelResult, ExperimentResult};
use tp_bench::store::{
    completed_cells, replay_journal, CellRecord, Journal, JournalHeader, LoadReport,
};
use tp_sim::Platform;

/// Synthetic but awkward channel values: non-round floats whose printed
/// form loses precision, so only the bit-exact journal fields can
/// round-trip them.
fn channel(i: u64, mech: &'static str) -> ChannelResult {
    ChannelResult {
        channel: "L1-D",
        mechanism: mech,
        metric: "M_mb",
        value: f64::from_bits(0x4065_0000_0000_0000 + i * 0x0123_4567),
        baseline: 40.25 + i as f64 / 3.0,
        leaks: i.is_multiple_of(2),
        samples: 100 + i as usize,
    }
}

fn record(i: u64) -> CellRecord {
    let names = ["l1d", "tlb", "btb", "bhb", "bus", "l2"];
    let platforms = [Platform::Haswell, Platform::Skylake, Platform::Sabre];
    CellRecord::new(
        names[(i % 6) as usize],
        platforms[((i / 6) % 3) as usize],
        0.125 + i as f64 / 7.0,
        &[channel(i, "raw"), channel(i + 100, "protected")],
    )
}

/// The ground-truth journal: 12 distinct cells, written through the real
/// `Journal` (header + fsynced appends), read back as bytes. Built once.
fn ground_truth() -> &'static (String, Vec<CellRecord>, JournalHeader) {
    static TRUTH: OnceLock<(String, Vec<CellRecord>, JournalHeader)> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tp-store-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.journal");
        let header = JournalHeader::current();
        let records: Vec<CellRecord> = (0..12).map(record).collect();
        let mut j = Journal::create(&path, &header).expect("create journal");
        for r in &records {
            j.append(r).expect("append");
        }
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read journal back");
        let _ = std::fs::remove_dir_all(&dir);
        (text, records, header)
    })
}

/// What a resumed campaign would end up with: journaled cells served from
/// `completed`, every other scheduled cell recomputed from ground truth.
fn final_results(report: &LoadReport, truth: &[CellRecord]) -> Vec<CellRecord> {
    let completed = completed_cells(report);
    truth
        .iter()
        .map(|want| completed.get(&want.key()).unwrap_or(want).clone())
        .collect()
}

proptest! {
    /// Truncating the journal at an arbitrary byte offset loses at most a
    /// suffix of cells — the replayed prefix is bit-exact, damaged records
    /// are reported (never silently accepted), and a resume that recomputes
    /// the lost cells reproduces the ground truth exactly.
    #[test]
    fn truncation_never_changes_final_results(cut in 0usize..20_000) {
        let (text, truth, header) = ground_truth();
        let cut = cut.min(text.len());
        let report = replay_journal(&text[..cut], header);
        prop_assert!(report.records.len() <= truth.len());
        for (got, want) in report.records.iter().zip(truth) {
            prop_assert_eq!(got, want, "replayed record must be bit-exact");
        }
        if report.records.len() < truth.len() && cut > 0 {
            // Anything lost is accounted for, with the damage located.
            prop_assert!(report.truncated > 0 || cut <= text.find('\n').unwrap_or(0) + 1);
        }
        prop_assert_eq!(final_results(&report, truth), truth.clone());
    }

    /// Flipping any single byte anywhere in the journal — header, checksum,
    /// record body, even a newline — never corrupts final results: the
    /// damaged record and everything after it recompute, everything before
    /// it is served bit-exact.
    #[test]
    fn byte_flip_never_changes_final_results(offset in 0usize..20_000, x in 1u8..=255) {
        let (text, truth, header) = ground_truth();
        let mut bytes = text.clone().into_bytes();
        let offset = offset % bytes.len();
        bytes[offset] ^= x;
        let damaged = String::from_utf8_lossy(&bytes).into_owned();
        let report = replay_journal(&damaged, header);
        for (got, want) in report.records.iter().zip(truth) {
            prop_assert_eq!(got, want, "replayed record must be bit-exact");
        }
        prop_assert!(
            report.records.len() >= truth.len() || report.first_damaged.is_some(),
            "a lost record must be reported with its index, never dropped silently"
        );
        prop_assert_eq!(final_results(&report, truth), truth.clone());
    }
}

/// A cell replayed from the journal serialises byte-identically to the
/// original run: the `*_bits` journal fields round-trip the exact `f64`s,
/// so `--resume` reproduces `results.json` and the golden file without a
/// byte of churn.
#[test]
fn replayed_cells_reserialize_byte_identically() {
    let names = ["l1d", "tlb", "btb", "bhb", "bus", "l2"];
    let originals: Vec<ExperimentResult> = (0..12)
        .map(|i| {
            let rec = record(i);
            ExperimentResult {
                experiment: names[(i % 6) as usize],
                platform: Platform::from_key(&rec.platform).unwrap(),
                seconds: rec.seconds,
                channels: rec.channels.clone(),
            }
        })
        .collect();
    let replayed: Vec<ExperimentResult> = originals
        .iter()
        .map(|r| {
            let rec = CellRecord::new(r.experiment, r.platform, r.seconds, &r.channels);
            let parsed = CellRecord::parse(&rec.body()).expect("journal roundtrip");
            ExperimentResult::from_record(r.experiment, r.platform, &parsed)
        })
        .collect();
    assert_eq!(
        results_json(&originals, 1.5),
        results_json(&replayed, 1.5),
        "results.json must not change across a journal roundtrip"
    );
    assert_eq!(
        golden_json(&originals),
        golden_json(&replayed),
        "the golden file must not change across a journal roundtrip"
    );
}
