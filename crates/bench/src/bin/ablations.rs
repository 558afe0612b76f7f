//! Per-mechanism ablations of the time-protection suite (see DESIGN.md).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("ablations", tp_bench::channels::ablations)
}
