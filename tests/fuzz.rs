//! Seeded mutation fuzzing of the decoders that read untrusted input.
//!
//! Each decoder gets valid seed input, mutated by a dependency-free loop on
//! the in-repo [`Rng64`]: every mutant must decode to an `Err` or a value,
//! never a panic. The loops are small and seeded, so a failure replays
//! exactly and the whole file stays well under a second of test time.

use lva::core::{ApproximatorConfig, ClpConfig, LvpConfig, Rng64};
use lva::cpu::trace_io::{read_traces, write_traces};
use lva::obs::parse_json;
use lva::serve::protocol::{encode_outcome, parse_server_line, ServerLine};
use lva::serve::{evaluate_point, JobOutcome, PointSpec};
use lva::sim::{FaultConfig, FullSystem, FullSystemConfig, MechanismKind, SimConfig};
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

/// `flips` copies of `seed` with one to four random bytes flipped, then
/// `cuts` random truncations of it, each with its name.
fn mutants(seed: &[u8], rng: &mut Rng64, flips: usize, cuts: usize) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::with_capacity(flips + cuts);
    for i in 0..flips {
        let mut bytes = seed.to_vec();
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= rng.gen_range(1..256u32) as u8;
        }
        out.push((format!("byte flips #{i}"), bytes));
    }
    for i in 0..cuts {
        let len = rng.gen_range(0..seed.len());
        out.push((format!("truncation #{i} to {len} B"), seed[..len].to_vec()));
    }
    out
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
    for (what, bytes) in mutants(&seed, &mut rng, 256, 64) {
        decode_survives(&what, &bytes);
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

/// Parses `text` and decodes a config from whatever parses; true when a
/// config decoded. Fails the test, naming the mutant, on a panic, and on a
/// decoded config that does not round-trip through its own JSON form.
fn config_survives(what: &str, text: &str) -> bool {
    let decoded = catch_unwind(|| SimConfig::from_json(&parse_json(text).ok()?).ok())
        .unwrap_or_else(|_| panic!("{what}: decoding panicked on {text}"));
    if let Some(config) = &decoded {
        let back = SimConfig::from_json(&config.to_json());
        assert_eq!(
            back.as_ref(),
            Ok(config),
            "{what}: {text} does not round-trip"
        );
    }
    decoded.is_some()
}

#[test]
fn config_json_decodes_or_errors_but_never_panics() {
    // One config per mechanism kind; the LVA one also carries a governor
    // with both layers and fault injection.
    let faults = FaultConfig::seeded(7)
        .with_drop_rate(0.01)
        .with_delay(0.02, 40);
    let seeds = [
        SimConfig::precise(),
        SimConfig::baseline_lva()
            .with_error_budget(0.05)
            .with_govern_slo(0.02)
            .with_faults(faults),
        SimConfig::lvp(LvpConfig::baseline()),
        SimConfig::realistic_lvp(),
        SimConfig::prefetch(4),
        SimConfig::clp(ClpConfig::baseline()),
        SimConfig::lva_clp(ApproximatorConfig::baseline(), ClpConfig::baseline()),
    ];
    let mut rng = Rng64::new(0xc0de_c0f1);
    let mut decoded = 0;
    for (s, config) in seeds.iter().enumerate() {
        let seed = config.to_json().to_string_compact();
        assert!(config_survives(&format!("seed {s}"), &seed));
        let mut survives = |what, text: &str| {
            decoded += usize::from(config_survives(&format!("seed {s}, {what}"), text));
        };
        for (what, bytes) in mutants(seed.as_bytes(), &mut rng, 64, 16) {
            survives(what, &String::from_utf8_lossy(&bytes));
        }
        // Every number the encoder wrote (each follows a key's colon),
        // rewritten to each edge value in turn.
        let numeric = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
        let bytes = seed.as_bytes();
        for at in (1..bytes.len()).filter(|&i| bytes[i - 1] == b':' && numeric(&bytes[i])) {
            let len = bytes[at..].iter().take_while(|b| numeric(b)).count();
            for edge in "-1 0 1e400 18446744073709551616 9007199254740993".split(' ') {
                let text = format!("{}{edge}{}", &seed[..at], &seed[at + len..]);
                survives(format!("{edge} at {at}"), &text);
            }
        }
    }
    assert!(decoded > 0, "no mutant decoded");
}

#[test]
fn server_lines_decode_or_error_but_never_panic() {
    // The final line of a two-point job: one manifest, one refused point.
    let results: Vec<_> = ["blackscholes", "no-such-kernel"]
        .into_iter()
        .map(|name| {
            evaluate_point(&PointSpec::new(
                name,
                WorkloadScale::Test,
                0,
                SimConfig::precise(),
            ))
        })
        .collect();
    assert!(results[0].is_ok() && results[1].is_err(), "{results:?}");
    let outcome = JobOutcome {
        results,
        cache_hits: 1,
        deduped: 0,
    };
    let seed = encode_outcome(7, &outcome);
    match parse_server_line(&seed) {
        Ok(ServerLine::Outcome {
            job: 7, results, ..
        }) => assert_eq!(results, outcome.results),
        other => panic!("the seed line must decode to its outcome, got {other:?}"),
    }
    let mut rng = Rng64::new(0x5e7e_11e5);
    for (what, bytes) in mutants(seed.as_bytes(), &mut rng, 256, 64) {
        let line = String::from_utf8_lossy(&bytes);
        let decoded = catch_unwind(|| parse_server_line(&line).is_ok());
        assert!(decoded.is_ok(), "{what}: decoding panicked on {line}");
    }
}
