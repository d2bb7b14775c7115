//! The traced benchmark binary: the counting allocator is installed and
//! every call into the system is wrapped in a span.

#[global_allocator]
static ALLOC: gcs_bench::alloccount::CountingAlloc = gcs_bench::alloccount::CountingAlloc;

fn main() {
    gcsbench::main_with(true)
}
