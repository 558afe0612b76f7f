//! Regenerates the paper's fig6 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("fig6", tp_bench::channels::fig6)
}
