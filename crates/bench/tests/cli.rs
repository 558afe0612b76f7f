//! The `reproduce_all` binary end to end: section selection, and
//! artifacts that cannot be written.
//!
//! Every run here is instant (Table 1 is closed-form and runs no registry
//! cell), so the debug binary suffices.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tp-bench-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("TP_SAMPLES", "0.25")
        .env("TP_THREADS", "1")
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Replace `path` with a directory that has an entry in it, so a file
/// cannot be renamed over it (whatever the permissions of the user running
/// this).
fn block(path: &Path) {
    let _ = std::fs::remove_file(path);
    std::fs::create_dir_all(path.join("occupied")).expect("create blocker");
}

#[test]
fn only_prints_exactly_that_section_of_the_pinned_stdout() {
    let dir = workdir("only");
    let out = run(
        env!("CARGO_BIN_EXE_reproduce_all"),
        &dir,
        &["--only", "table1"],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let pinned = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../goldens/reproduce_all.stdout"
    ))
    .expect("pinned stdout readable");
    let start = pinned
        .find("==================== table1 ")
        .expect("table1 pinned");
    let end = pinned
        .find("==================== table2 ")
        .expect("table2 pinned");
    assert_eq!(String::from_utf8_lossy(&out.stdout), &pinned[start..end]);
    let bench = std::fs::read_to_string(dir.join("BENCH.json")).expect("BENCH.json written");
    assert!(bench.contains("\"name\": \"table1\""), "{bench}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_with_an_unknown_section_exits_2_naming_the_valid_ones() {
    let dir = workdir("unknown");
    let out = run(
        env!("CARGO_BIN_EXE_reproduce_all"),
        &dir,
        &["--only", "table3,fig9"],
    );
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("\"fig9\""), "{err}");
    for name in tp_bench::reproduce::section_names() {
        assert!(err.contains(name), "{name} missing from {err}");
    }
    assert!(out.stdout.is_empty());
    for bad in [&["--only"][..], &["--bogus"]] {
        let out = run(env!("CARGO_BIN_EXE_reproduce_all"), &dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_fault_variables_exit_2_naming_them() {
    let dir = workdir("env");
    // A trigger point that is not a number, one below the 1-based range,
    // cell scopes that name no registry cell (an unknown experiment, an
    // unknown platform, and a platform the experiment does not run on),
    // and the retired executor fault class, bare and scoped.
    for value in [
        "env-panic@x",
        "env-panic@0",
        "env-panic@2:cell=tbl/haswell",
        "env-panic@2:cell=tlb/haswel",
        "env-panic@2:cell=llc/sabre",
        "lost-wakeup",
        "lost-wakeup@2:cell=llc/haswell",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce_all"))
            .args(["--only", "table1"])
            .current_dir(&dir)
            .env("TP_FAULT", value)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{value}: {}", stderr(&out));
        assert!(stderr(&out).contains("TP_FAULT"), "{}", stderr(&out));
        assert!(out.stdout.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reproduce_all_exits_2_when_bench_json_cannot_be_written() {
    let dir = workdir("bench");
    block(&dir.join("BENCH.json"));
    let out = run(
        env!("CARGO_BIN_EXE_reproduce_all"),
        &dir,
        &["--only", "table1"],
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("BENCH.json"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reproduce_all_exits_2_when_an_artifact_cannot_be_written() {
    for artifact in ["goldens/quarantine.json", "results.json"] {
        let dir = workdir("artifact");
        let args = ["--only", "table1", "--json", "results.json"];
        let out = run(env!("CARGO_BIN_EXE_reproduce_all"), &dir, &args);
        assert!(out.status.success(), "{}", stderr(&out));
        let ledger = std::fs::read_to_string(dir.join("goldens/quarantine.json"));
        assert_eq!(ledger.expect("ledger written"), "[]\n");
        let results = std::fs::read_to_string(dir.join("results.json"));
        assert!(results.expect("results written").contains("\"results\": ["));
        block(&dir.join(artifact));
        let out = run(env!("CARGO_BIN_EXE_reproduce_all"), &dir, &args);
        assert_eq!(out.status.code(), Some(2), "{artifact}: {}", stderr(&out));
        assert!(stderr(&out).contains(artifact), "{}", stderr(&out));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
