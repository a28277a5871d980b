//! The traced binary: the `layers` pass and the traced run, with the
//! counting allocator installed.

#[global_allocator]
static ALLOC: ezbft_benchmark::alloc::CountingAlloc = ezbft_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    ezbft_benchmark::main_with(true)
}
