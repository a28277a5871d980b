//! The end-to-end binary: tracing off, system allocator.

fn main() -> std::process::ExitCode {
    ezbft_benchmark::main_with(false)
}
