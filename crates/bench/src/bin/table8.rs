//! Regenerates the paper's table8 (see DESIGN.md experiment index).
fn main() -> std::process::ExitCode {
    tp_bench::cli::report("table8", tp_bench::splash::table8)
}
