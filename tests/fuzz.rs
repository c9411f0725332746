//! Seeded mutation fuzzing of the decoders that read untrusted input.
//!
//! Each decoder gets valid seed input, mutated by a dependency-free loop on
//! the in-repo [`Rng64`]: every mutant must decode to an `Err` or a value,
//! never a panic. The loops are small and seeded, so a failure replays
//! exactly and the whole file stays well under a second of test time.

use lva::core::Rng64;
use lva::cpu::trace_io::{read_traces, write_traces};
use lva::sim::{FullSystem, FullSystemConfig, MechanismKind, SimConfig};
use lva::workloads::{registry, WorkloadScale};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Byte offset of the `.lvat` header's little-endian u16 thread count.
const THREAD_COUNT_AT: usize = 6;

/// A recorded Test-scale trace file, as `lva-explore trace` writes it.
fn recorded_trace() -> Vec<u8> {
    let workload = registry(WorkloadScale::Test)
        .into_iter()
        .find(|w| w.name() == "swaptions")
        .expect("swaptions is registered");
    let run = workload.execute(&SimConfig::precise().with_traces());
    let mut bytes = Vec::new();
    write_traces(&mut bytes, &run.traces).expect("in-memory write");
    bytes
}

/// Decodes `bytes` and builds a full system from whatever decodes; the
/// replay itself is not run. Fails the test, naming the mutant, on a panic.
fn decode_survives(what: &str, bytes: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(traces) = read_traces(bytes) {
            let config = FullSystemConfig::paper(MechanismKind::Precise);
            let _ = FullSystem::try_new(config, traces);
        }
    }));
    assert!(outcome.is_ok(), "{what}: decoding panicked");
}

#[test]
fn trace_files_decode_or_error_but_never_panic() {
    let seed = recorded_trace();
    let threads = u16::from_le_bytes([seed[THREAD_COUNT_AT], seed[THREAD_COUNT_AT + 1]]);
    assert!(read_traces(&seed[..]).is_ok(), "the seed input must decode");
    let mut rng = Rng64::new(0xf022_1a7e);

    for i in 0..256 {
        let mut bytes = seed.clone();
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= rng.gen_range(1..256u32) as u8;
        }
        decode_survives(&format!("byte flips #{i}"), &bytes);
    }

    for i in 0..64 {
        let len = rng.gen_range(0..seed.len());
        decode_survives(&format!("truncation #{i} to {len} B"), &seed[..len]);
    }

    // These are simulated cores, not OS threads. Each count is tried as a
    // bare header rewrite and with zero-op thread records appended, so the
    // file stays well-formed and reaches the full system.
    for count in (0..=16u16).chain([255, 256, 4096, 65535]) {
        let mut bytes = seed.clone();
        bytes[THREAD_COUNT_AT..THREAD_COUNT_AT + 2].copy_from_slice(&count.to_le_bytes());
        decode_survives(&format!("thread count {count}"), &bytes);
        let extra = usize::from(count.saturating_sub(threads));
        bytes.resize(bytes.len() + extra * 8, 0);
        decode_survives(&format!("thread count {count}, padded"), &bytes);
    }
}
