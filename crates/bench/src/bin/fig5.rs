//! Regenerates the paper's fig5 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("fig5", tp_bench::channels::fig5)
}
