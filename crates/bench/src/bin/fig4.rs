//! Regenerates the paper's fig4 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("fig4", tp_bench::channels::fig4)
}
