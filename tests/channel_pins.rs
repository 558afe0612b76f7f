//! Pins the exact datasets and verdicts of the two-party channels outside
//! the prime&probe family: bus, flush-latency, interrupt, kernel-image and
//! the cloud fleet's pooled attacker pairs. A refactor of the channel
//! skeleton must reproduce every pinned symbol, output bit, `M` and `M0`.
//!
//! The rows run on Arm, or on x86 without time protection, so a fix to
//! the x86 flush walk does not move them.

use tp_attacks::flush_latency::{self, Timing};
use tp_attacks::harness::{ChannelOutcome, IntraCoreSpec, Scenario};
use tp_attacks::{bus, interrupt, kernel_image};
use tp_bench::cloud::{run_cloud, CloudSpec};
use tp_bench::store::fnv64;
use tp_core::ProtectionConfig;
use tp_sim::Platform;

/// `(observations, fnv64 of the dataset, M bits, M0 bits)`, floats as
/// `f64::to_bits`. The dataset hash covers each symbol and each output's
/// bits, in order.
type Pin = (usize, u64, u64, u64);

/// Pinned before the channels shared one harness skeleton.
#[rustfmt::skip]
const PINS: [(&str, Pin); 10] = [
    ("bus/haswell/raw", (41, 0xc11f89df0d901d4f, 0x3fefffe16265fc44, 0x3fda6c2a2c9fdf09)),
    ("flush/online-nopad", (41, 0xc96d8c01621c92ad, 0x40026e3387588147, 0x3fe48ad4260c4e9d)),
    ("flush/online-pad", (41, 0x6dcffe05d22b36e3, 0x3c8401c8a5f30664, 0x3c8401c8a5f30664)),
    ("flush/offline-nopad", (41, 0x3cab7619dae1a036, 0x4002705d2f839f5d, 0x3fe43923965b26a3)),
    ("flush/offline-pad", (41, 0x24fed39169a942a9, 0x3fd79cd3a0a3a65b, 0x3fe11f5a9d000592)),
    ("interrupt/raw", (31, 0xe6a02c01da3fd355, 0x4002934f094fa80a, 0x3febd8fe0dbb95a8)),
    ("interrupt/partitioned", (31, 0xb375b6aeaa6109c2, 0, 0)),
    ("kernel-image/coloured-only", (41, 0x638d045c1e2dd5da, 0x3ff63c53cb1f6978, 0x3fd7ffd1a4f44387)),
    ("kernel-image/protected", (41, 0x9a96434ea0576281, 0x3fc4ffd264bc361a, 0x3fd36dde6ca07002)),
    ("cloud/sabre/protected", (33, 0x7a6eb736c0e4a2a6, 0x3ff14c9e145a7c2c, 0x3ff70ce228ae0916)),
];

fn pin(o: &ChannelOutcome) -> Pin {
    let mut bytes = Vec::new();
    for (&s, &x) in o.dataset.inputs().iter().zip(o.dataset.outputs()) {
        bytes.extend_from_slice(&(s as u64).to_le_bytes());
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    (
        o.dataset.len(),
        fnv64(&bytes),
        o.verdict.m.bits.to_bits(),
        o.verdict.m0_bits.to_bits(),
    )
}

/// Run the row `name` of [`PINS`] at 40 samples (30 for the 10 ms
/// interrupt slices).
fn run(name: &str) -> ChannelOutcome {
    let sabre = |prot, n_symbols| IntraCoreSpec {
        platform: Platform::Sabre,
        prot,
        n_symbols,
        samples: 40,
        slice_us: 50.0,
        seed: 0x5EED,
    };
    let pad = flush_latency::table4_pad_us(Platform::Sabre);
    let flush = |timing, pad_us| {
        let prot = flush_latency::flush_channel_config(pad_us);
        flush_latency::flush_channel(&sabre(prot, 8), timing)
    };
    let interrupt = |partitioned| {
        interrupt::try_interrupt_channel(&interrupt::paper_spec(Platform::Sabre, partitioned, 30))
    };
    let kernel_image = |prot| kernel_image::kernel_image_channel(&sabre(prot, 4));
    match name {
        "bus/haswell/raw" => bus::bus_channel(
            &IntraCoreSpec::new(Platform::Haswell, Scenario::Raw, 2, 40).with_slice_us(30.0),
        ),
        "flush/online-nopad" => flush(Timing::Online, None),
        "flush/online-pad" => flush(Timing::Online, Some(pad)),
        "flush/offline-nopad" => flush(Timing::Offline, None),
        "flush/offline-pad" => flush(Timing::Offline, Some(pad)),
        "interrupt/raw" => interrupt(false),
        "interrupt/partitioned" => interrupt(true),
        "kernel-image/coloured-only" => kernel_image(kernel_image::coloured_userland_config()),
        "kernel-image/protected" => kernel_image(ProtectionConfig::protected()),
        "cloud/sabre/protected" => {
            let mut s = CloudSpec::new(Platform::Sabre, ProtectionConfig::protected(), 6);
            s.pairs = 3;
            s.samples = 30;
            run_cloud(&s).map(|r| r.outcome)
        }
        other => panic!("no channel pin named {other}"),
    }
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn paired_channels_match_pinned_datasets() {
    for (name, want) in PINS {
        let got = run(name);
        assert_eq!(pin(&got), want, "{name}: {}", got.summary());
    }
}
