//! Regenerates the paper's table4 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("table4", tp_bench::channels::table4)
}
