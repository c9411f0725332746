//! Property-based tests for the approximator building blocks, driven by
//! deterministic seeded-PRNG case loops (no external test dependencies;
//! every failure reproduces from the case index).

use lva_core::{
    Addr, ApproximatorConfig, CacheLevel, ClpConfig, ComputeFn, ConfidenceCounter,
    ConfidenceUpdate, ConfidenceWindow, ContextHasher, FetchAction, GhbPrefetcher, HashKind,
    HistoryBuffer, LevelPrediction, LevelPredictor, LoadValueApproximator, MissOutcome, Pc,
    PrefetcherConfig, Rng64, Value, ValueType,
};
use lva_obs::{NullSink, TraceCtx};

const CASES: u64 = 256;

fn predict(p: &LevelPredictor, pc: Pc) -> LevelPrediction {
    p.predict_traced(pc, &mut NullSink, TraceCtx::new(0, 0))
}

fn verify(p: &mut LevelPredictor, prediction: &LevelPrediction, actual: CacheLevel) {
    p.verify_traced(prediction, actual, &mut NullSink, TraceCtx::new(0, 0));
}

fn rng_for(test_seed: u64, case: u64) -> Rng64 {
    Rng64::new(test_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

fn pick_value_type(rng: &mut Rng64) -> ValueType {
    [
        ValueType::U8,
        ValueType::I32,
        ValueType::I64,
        ValueType::F32,
        ValueType::F64,
    ][rng.gen_range(0..5usize)]
}

/// Arbitrary f32 over the full bit pattern space (includes NaN/inf, like
/// proptest's `any::<f32>()`).
fn any_f32(rng: &mut Rng64) -> f32 {
    f32::from_bits(rng.gen_u64() as u32)
}

/// from_bits masks to the type's width, so bits() round-trips.
#[test]
fn value_bits_round_trip() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let bits = rng.gen_u64();
        let ty = pick_value_type(&mut rng);
        let v = Value::from_bits(bits, ty);
        assert_eq!(Value::from_bits(v.bits(), ty), v);
        let width = ty.size_bytes() * 8;
        if width < 64 {
            assert!(v.bits() < (1u64 << width));
        }
    }
}

/// from_numeric always produces a value of the requested type whose
/// numeric interpretation is within rounding of the input (when the
/// input is representable).
#[test]
fn from_numeric_stays_close_for_in_range() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let x = rng.gen_range(-1.0e4f64..1.0e4);
        for ty in [
            ValueType::I32,
            ValueType::I64,
            ValueType::F32,
            ValueType::F64,
        ] {
            let v = Value::from_numeric(x, ty);
            assert_eq!(v.value_type(), ty);
            assert!(
                (v.to_f64() - x).abs() <= 0.5 + x.abs() * 1e-6,
                "{} -> {} as {:?}",
                x,
                v.to_f64(),
                ty
            );
        }
    }
}

/// The relative window is reflexive for finite values and scales with
/// the actual value's magnitude.
#[test]
fn window_is_reflexive() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let x = rng.gen_range(-1.0e6f32..1.0e6);
        let frac = rng.gen_range(0.0f64..0.5);
        let v = Value::from_f32(x);
        assert!(v.within_relative_window(v, frac));
    }
}

/// Mantissa truncation is idempotent and only ever clears bits.
#[test]
fn truncation_clears_bits() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let x = any_f32(&mut rng);
        let loss = rng.gen_range(0u32..30);
        let v = Value::from_f32(x);
        let t = v.hash_bits(loss);
        assert_eq!(t & v.bits(), t, "truncation may only clear bits");
        let tt = Value::from_bits(t, ValueType::F32).hash_bits(loss);
        assert_eq!(t, tt, "truncation must be idempotent");
    }
}

/// HistoryBuffer behaves like a bounded VecDeque.
#[test]
fn history_matches_model() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let cap = rng.gen_range(0usize..8);
        let n = rng.gen_range(0usize..64);
        let items: Vec<u32> = (0..n).map(|_| rng.gen_u64() as u32).collect();
        let mut buf = HistoryBuffer::new(cap);
        let mut model: Vec<u32> = Vec::new();
        for &item in &items {
            buf.push(item);
            model.push(item);
            if model.len() > cap {
                model.remove(0);
            }
        }
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), model);
        assert_eq!(buf.iter().last().copied(), model.last().copied());
    }
}

/// Confidence counters never leave their saturating range.
#[test]
fn confidence_stays_in_range() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let bits = rng.gen_range(2u32..8);
        let nops = rng.gen_range(0usize..200);
        let mut c = ConfidenceCounter::new(bits);
        let (min, max) = (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1);
        for _ in 0..nops {
            if rng.gen_bool(0.5) {
                c.increment()
            } else {
                c.decrement(1)
            }
            assert!(c.value() >= min && c.value() <= max);
        }
    }
}

/// Hash slots always index within the table and tags within tag bits.
#[test]
fn hasher_in_range() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let pc = rng.gen_u64();
        let nvals = rng.gen_range(0usize..4);
        let h = ContextHasher::new(HashKind::Xor, 0, 9, 21);
        let mut ghb = HistoryBuffer::new(4);
        ghb.extend((0..nvals).map(|_| Value::from_f32(any_f32(&mut rng))));
        let slot = h.slot(Pc(pc), &ghb);
        assert!(slot.index < 512);
        assert!(slot.tag < (1 << 21));
    }
}

/// The estimate `compute` makes from `history` (oldest first), read through
/// the approximator: one PC's LHB is trained with the history and then
/// missed on once more. The infinite confidence window keeps the float
/// entry confident whatever the values.
fn estimate(compute: ComputeFn, history: &[f64]) -> f64 {
    let mut a = LoadValueApproximator::new(ApproximatorConfig {
        compute,
        lhb_entries: 8,
        confidence_window: ConfidenceWindow::Infinite,
        ..ApproximatorConfig::baseline()
    });
    for &v in history {
        let token = a.on_miss(Pc(1), ValueType::F64).token();
        a.train(token, Value::from_f64(v));
    }
    match a.on_miss(Pc(1), ValueType::F64) {
        MissOutcome::Approximate(ap) => ap.value.as_f64(),
        MissOutcome::Fallthrough(_) => panic!("a trained entry approximates"),
    }
}

/// The average computation never leaves the [min, max] envelope of the
/// history — the paper's argument for why bounded integer data (pixels)
/// cannot produce out-of-range approximations.
#[test]
fn average_is_bounded_by_history() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let n = rng.gen_range(1usize..8);
        let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0e6f64..1.0e6)).collect();
        let avg = estimate(ComputeFn::Average, &vals);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            avg >= lo - 1e-9 && avg <= hi + 1e-9,
            "{avg} not in [{lo}, {hi}]"
        );
        let w = estimate(ComputeFn::WeightedAverage, &vals);
        assert!(w >= lo - 1e-9 && w <= hi + 1e-9);
    }
}

/// Training with values inside the window never decreases confidence,
/// regardless of the update rule.
#[test]
fn in_window_training_is_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let start_downs = rng.gen_range(0u32..8);
        let n = rng.gen_range(1usize..20);
        let mut c = ConfidenceCounter::new(4);
        for _ in 0..start_downs {
            c.decrement(1);
        }
        for _ in 0..n {
            let v = rng.gen_range(90.0f64..110.0);
            let before = c.value();
            // approx == actual: always inside any window.
            let x = Value::from_f64(v);
            c.train(
                x,
                x,
                ConfidenceWindow::Relative(0.10),
                ConfidenceUpdate::Proportional,
            );
            assert!(c.value() >= before);
        }
    }
}

/// Under a fixed degree d with a warm integer entry, the approximator's
/// fetch:miss ratio is exactly 1:(d+1) (§III-C).
#[test]
fn degree_ratio_is_exact() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let degree = rng.gen_range(0u32..9);
        let misses = rng.gen_range(20usize..120);
        let mut cfg = ApproximatorConfig::with_degree(degree);
        cfg.confidence_on_int = false;
        let mut a = LoadValueApproximator::new(cfg);
        // Warm the entry.
        let t = a.on_miss(Pc(1), ValueType::I32).token();
        a.train(t, Value::from_i32(5));
        let mut fetches = 0u32;
        for _ in 0..misses {
            match a.on_miss(Pc(1), ValueType::I32) {
                MissOutcome::Approximate(ap) => {
                    if ap.fetch == FetchAction::Fetch {
                        fetches += 1;
                        a.train(ap.token, Value::from_i32(5));
                    }
                }
                MissOutcome::Fallthrough(t) => {
                    fetches += 1;
                    a.train(t, Value::from_i32(5));
                }
            }
        }
        let expected = (misses as u32).div_ceil(degree + 1);
        assert!(
            fetches.abs_diff(expected) <= 1,
            "degree {degree}: {fetches} fetches for {misses} misses"
        );
    }
}

/// Prefetch candidates never include the missing block, never exceed
/// the degree, and are unique.
#[test]
fn prefetch_candidates_are_sane() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let degree = rng.gen_range(1u32..17);
        let n = rng.gen_range(1usize..200);
        let mut p = GhbPrefetcher::try_new(PrefetcherConfig::paper(degree)).unwrap();
        for _ in 0..n {
            let pc = rng.gen_range(0u64..64);
            let block = rng.gen_range(0u64..4096);
            let addr = Addr(block * 64);
            let cands = p.on_miss(Pc(pc), addr);
            assert!(cands.len() <= degree as usize);
            let mut blocks: Vec<u64> = cands.iter().map(|a| a.block_index()).collect();
            assert!(!blocks.contains(&block));
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), cands.len(), "duplicate candidates");
        }
    }
}

/// Level-predictor confidence counters saturate at both rails and never
/// underflow, even under arbitrary-sized decrements (the predictor's
/// retrain path resets rather than wrapping).
#[test]
fn clp_confidence_saturates_and_never_underflows() {
    for case in 0..CASES {
        let mut rng = rng_for(13, case);
        let bits = rng.gen_range(2u32..10);
        let nops = rng.gen_range(0usize..300);
        let mut c = ConfidenceCounter::new(bits);
        let (min, max) = (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1);
        for _ in 0..nops {
            match rng.gen_range(0u32..3) {
                0 => c.increment(),
                1 => c.decrement(rng.gen_range(1u32..8) as i32),
                _ => c.reset(),
            }
            assert!(c.value() >= min, "underflow past {min}: {}", c.value());
            assert!(c.value() <= max, "overflow past {max}: {}", c.value());
        }
        // Saturation: pushing past a rail sticks at the rail (the counter
        // may sit anywhere in range, so walk the whole span and then some).
        for _ in 0..(1usize << bits) + 5 {
            c.increment();
        }
        assert_eq!(c.value(), max);
        c.decrement(i32::MAX);
        assert_eq!(c.value(), min);
    }
}

/// A tag conflict hands the slot to the new PC: after `verify`, the new
/// owner predicts the level it was just verified against (clamped to the
/// depth) and the displaced PC gets the cold prediction, the deepest level
/// unconfidently.
#[test]
fn clp_conflicting_verify_retrains_the_slot_for_the_new_owner() {
    let mut conflicts = 0;
    for case in 0..CASES {
        let mut rng = rng_for(14, case);
        // A tiny table over a wide PC space forces constant tag conflicts.
        let entries = 1usize << rng.gen_range(1u32..4);
        let depth = rng.gen_range(2u32..5);
        let mut p = LevelPredictor::try_new(ClpConfig {
            table_entries: entries,
            hierarchy_depth: depth,
            ..ClpConfig::baseline()
        })
        .unwrap();
        let deepest = CacheLevel::from_index(depth - 1);
        // The PC last verified in each slot (slots are indexed by the
        // PC's low bits, so two PCs sharing one always differ in tag).
        let mut owners: Vec<Option<Pc>> = vec![None; entries];
        let n = rng.gen_range(1usize..400);
        for _ in 0..n {
            let pc = Pc(rng.gen_range(0u64..1 << 12));
            let actual = CacheLevel::from_index(rng.gen_range(0u32..4));
            let prediction = predict(&p, pc);
            verify(&mut p, &prediction, actual);
            let slot = pc.0 as usize & (entries - 1);
            let Some(displaced) = owners[slot].replace(pc).filter(|&d| d != pc) else {
                continue;
            };
            conflicts += 1;
            assert_eq!(predict(&p, pc).level, actual.clamp_to_depth(depth));
            let cold = predict(&p, displaced);
            assert_eq!((cold.level, cold.confident), (deepest, false));
        }
    }
    assert!(conflicts > 0, "the stream must conflict");
}

/// Predictions never name a level outside the configured hierarchy depth,
/// no matter what levels training observes.
#[test]
fn clp_prediction_stays_within_hierarchy_depth() {
    for case in 0..CASES {
        let mut rng = rng_for(15, case);
        let depth = rng.gen_range(2u32..5);
        let mut p = LevelPredictor::try_new(ClpConfig {
            hierarchy_depth: depth,
            table_entries: 16,
            ..ClpConfig::baseline()
        })
        .unwrap();
        let n = rng.gen_range(1usize..300);
        for _ in 0..n {
            let pc = Pc(rng.gen_range(0u64..256));
            // Feed actual levels from the FULL hierarchy, including ones
            // deeper than the configured depth — verify must clamp.
            let actual = CacheLevel::from_index(rng.gen_range(0u32..4));
            let prediction = predict(&p, pc);
            assert!(
                prediction.level.index() < depth,
                "depth {depth}: predicted {}",
                prediction.level.label()
            );
            assert_eq!(prediction.level, prediction.level.clamp_to_depth(depth));
            verify(&mut p, &prediction, actual);
            let latency = p.load_latency(&prediction, actual);
            assert!(latency >= CacheLevel::L1.service_latency());
        }
    }
}

/// The approximator never approximates from an empty LHB. A shadow of the
/// table, keyed by the same context hash, tracks which entries hold a
/// trained value; integers are not confidence-gated, so every miss to one
/// of them approximates and every other miss falls through without an
/// estimate.
#[test]
fn approximator_never_approximates_from_an_empty_lhb() {
    for case in 0..CASES {
        let mut rng = rng_for(12, case);
        let n = rng.gen_range(1usize..300);
        let ghb = rng.gen_range(0usize..5);
        let cfg = ApproximatorConfig {
            degree: rng.gen_range(0u32..4),
            ..ApproximatorConfig::with_ghb(ghb)
        };
        let mut a = LoadValueApproximator::new(cfg.clone());
        let hasher = ContextHasher::new(
            cfg.hash,
            cfg.mantissa_loss_bits,
            cfg.table_entries.trailing_zeros(),
            cfg.tag_bits,
        );
        let mut history = HistoryBuffer::new(ghb);
        // Per entry: the owning tag and whether its LHB holds a value.
        let mut entries: Vec<Option<(u64, bool)>> = vec![None; cfg.table_entries];
        for _ in 0..n {
            let pc = Pc(rng.gen_range(0u64..8));
            let val = Value::from_i32(rng.gen_range(-100i32..100));
            let slot = hasher.slot(pc, &history);
            // A miss to another tag reallocates the entry, emptying its LHB.
            let trained = entries[slot.index] == Some((slot.tag, true));
            entries[slot.index] = Some((slot.tag, trained));
            let outcome = a.on_miss(pc, ValueType::I32);
            assert_eq!(matches!(outcome, MissOutcome::Approximate(_)), trained);
            assert_eq!(a.table().tag(slot.index), Some(slot.tag));
            if matches!(outcome, MissOutcome::Approximate(ap) if ap.fetch == FetchAction::Skip) {
                continue;
            }
            let feedback = a.train(outcome.token(), val);
            assert_eq!(feedback.is_some(), trained, "an estimate needs history");
            history.push(val);
            entries[slot.index] = Some((slot.tag, true));
        }
    }
}
