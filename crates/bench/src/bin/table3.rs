//! Regenerates the paper's table3 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("table3", tp_bench::channels::table3)
}
