//! Assembling a program allocates only its instruction list.
//!
//! Every committed conformance case (`tests/corpus/`) whose words decode
//! is disassembled to text and assembled back. The symbol table resolves
//! built-in names without building a map, and a line is parsed without
//! lowercased copies or an operand list, so one `assemble` costs the
//! program's own `Vec` — checked here against a bound of 3 allocations
//! with the counting allocator in `common`.

mod common;

use tpp::isa::{assemble, disassemble, Program};
use tpp_bench::conformance::{default_corpus_dir, load_corpus};

use common::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const MAX_ALLOCS_PER_ASSEMBLE: u64 = 3;

// One test per binary: see `common`.
#[test]
fn assemble_allocates_at_most_three_times() {
    // Loaded before any counted region: only `assemble` is measured.
    let corpus = load_corpus(&default_corpus_dir()).expect("load tests/corpus");
    let mut checked = 0;
    for (_, case) in &corpus {
        let Ok(program) = Program::decode_words(&case.insns) else {
            continue;
        };
        let text = disassemble(&program);
        let before = allocations();
        let again = assemble(&text);
        let allocs = allocations() - before;
        assert_eq!(again.as_ref(), Ok(&program), "{}: {text}", case.name);
        assert!(
            allocs <= MAX_ALLOCS_PER_ASSEMBLE,
            "{}: {allocs} allocations to assemble {} instructions",
            case.name,
            program.len()
        );
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} corpus programs decoded");
}
