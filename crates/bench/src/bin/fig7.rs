//! Regenerates the paper's fig7 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("fig7", tp_bench::splash::fig7)
}
