//! The benchmark binary: installs the counting allocator and hands the
//! arguments to [`tpp_benchmark::cli`].

#[global_allocator]
static ALLOC: tpp_benchmark::alloc::CountingAllocator = tpp_benchmark::alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tpp_benchmark::cli::main_with_args(&args));
}
