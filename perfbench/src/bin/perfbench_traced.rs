//! The traced benchmark binary: the same pipeline under the counting
//! allocator, reporting per-layer metrics; see `run.py`.

#[global_allocator]
static ALLOC: orochi_common::metrics::TrackingAllocator =
    orochi_common::metrics::TrackingAllocator::new();

fn main() -> std::process::ExitCode {
    orochi_perfbench::main(true)
}
