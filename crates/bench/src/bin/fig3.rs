//! Regenerates the paper's fig3 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("fig3", tp_bench::channels::fig3)
}
