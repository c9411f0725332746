//! Binary (de)serialization for instruction traces.
//!
//! Phase-1 runs are much slower than phase-2 replays, so a real user wants
//! to capture traces once and sweep full-system configurations against
//! them. The format is a small, versioned, little-endian binary encoding —
//! no external dependencies, readable by any tool that follows the layout
//! below.
//!
//! ```text
//! file   := magic(4: "LVAT") version(u16 = 1) thread_count(u16) thread*
//! thread := op_count(u64) op*
//! op     := tag(u8) payload
//!   tag 0: Compute  { n: u32 }
//!   tag 1: Load     { pc: u64, addr: u64, ty: u8, approx: u8, bits: u64 }
//!   tag 2: Store    { pc: u64, addr: u64, ty: u8 }
//! ty     := 0 u8 | 1 i32 | 2 i64 | 3 f32 | 4 f64
//! ```

use crate::{ThreadTrace, TraceOp};
use lva_core::{Addr, Pc, Value, ValueType};
use std::io::{self, Read, Write};

const MAGIC: [u8; 4] = *b"LVAT";
const VERSION: u16 = 1;

fn ty_code(ty: ValueType) -> u8 {
    match ty {
        ValueType::U8 => 0,
        ValueType::I32 => 1,
        ValueType::I64 => 2,
        ValueType::F32 => 3,
        ValueType::F64 => 4,
    }
}

fn ty_from(code: u8) -> io::Result<ValueType> {
    Ok(match code {
        0 => ValueType::U8,
        1 => ValueType::I32,
        2 => ValueType::I64,
        3 => ValueType::F32,
        4 => ValueType::F64,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown value type code {other}"),
            ))
        }
    })
}

/// Writes a set of per-thread traces to `w` in the `LVAT` format.
///
/// A mutable reference works as a writer too: `write_traces(&mut buf, ..)`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_traces<W: Write>(mut w: W, traces: &[ThreadTrace]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let count = u16::try_from(traces.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many threads"))?;
    w.write_all(&count.to_le_bytes())?;
    for trace in traces {
        w.write_all(&(trace.ops.len() as u64).to_le_bytes())?;
        for op in &trace.ops {
            match *op {
                TraceOp::Compute(n) => {
                    w.write_all(&[0u8])?;
                    w.write_all(&n.to_le_bytes())?;
                }
                TraceOp::Load {
                    pc,
                    addr,
                    ty,
                    approx,
                    value,
                } => {
                    w.write_all(&[1u8])?;
                    w.write_all(&pc.0.to_le_bytes())?;
                    w.write_all(&addr.0.to_le_bytes())?;
                    w.write_all(&[ty_code(ty), u8::from(approx)])?;
                    w.write_all(&value.bits().to_le_bytes())?;
                }
                TraceOp::Store { pc, addr, ty } => {
                    w.write_all(&[2u8])?;
                    w.write_all(&pc.0.to_le_bytes())?;
                    w.write_all(&addr.0.to_le_bytes())?;
                    w.write_all(&[ty_code(ty)])?;
                }
            }
        }
    }
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads traces written by [`write_traces`].
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic number, unsupported version or
/// malformed records, `UnexpectedEof` when the input ends before the
/// records its header counts, and propagates I/O errors from the reader.
pub fn read_traces<R: Read>(mut r: R) -> io::Result<Vec<ThreadTrace>> {
    let magic: [u8; 4] = read_exact(&mut r)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an LVAT trace file",
        ));
    }
    let version = u16::from_le_bytes(read_exact(&mut r)?);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let threads = u16::from_le_bytes(read_exact(&mut r)?);
    let mut out = Vec::with_capacity(usize::from(threads));
    for _ in 0..threads {
        let count = u64::from_le_bytes(read_exact(&mut r)?);
        // `count` is untrusted, so nothing is reserved from it: the ops
        // grow only as records arrive, and a short file fails in
        // `read_exact` instead of aborting on a huge allocation.
        let mut trace = ThreadTrace::new();
        for _ in 0..count {
            let [tag] = read_exact::<_, 1>(&mut r)?;
            let op = match tag {
                0 => TraceOp::Compute(u32::from_le_bytes(read_exact(&mut r)?)),
                1 => {
                    let pc = u64::from_le_bytes(read_exact(&mut r)?);
                    let addr = u64::from_le_bytes(read_exact(&mut r)?);
                    let [ty, approx] = read_exact::<_, 2>(&mut r)?;
                    let bits = u64::from_le_bytes(read_exact(&mut r)?);
                    let ty = ty_from(ty)?;
                    TraceOp::Load {
                        pc: Pc(pc),
                        addr: Addr(addr),
                        ty,
                        approx: approx != 0,
                        value: Value::from_bits(bits, ty),
                    }
                }
                2 => {
                    let pc = u64::from_le_bytes(read_exact(&mut r)?);
                    let addr = u64::from_le_bytes(read_exact(&mut r)?);
                    let [ty] = read_exact::<_, 1>(&mut r)?;
                    TraceOp::Store {
                        pc: Pc(pc),
                        addr: Addr(addr),
                        ty: ty_from(ty)?,
                    }
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown trace op tag {other}"),
                    ))
                }
            };
            trace.ops.push(op);
        }
        out.push(trace);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ThreadTrace> {
        let mut t0 = ThreadTrace::new();
        t0.push_compute(42);
        t0.push_load(
            Pc(0x100),
            Addr(0x40),
            ValueType::F32,
            true,
            Value::from_f32(1.5),
        );
        t0.push_store(Pc(0x104), Addr(0x80), ValueType::I32);
        let mut t1 = ThreadTrace::new();
        t1.push_load(
            Pc(0x200),
            Addr(0xc0),
            ValueType::U8,
            false,
            Value::from_u8(9),
        );
        vec![t0, t1, ThreadTrace::new()]
    }

    #[test]
    fn round_trips_exactly() {
        let traces = sample();
        let mut buf = Vec::new();
        write_traces(&mut buf, &traces).expect("write");
        let back = read_traces(buf.as_slice()).expect("read");
        assert_eq!(back, traces);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_traces(&b"NOPE"[..]).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LVAT");
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        let err = read_traces(buf.as_slice()).expect_err("must fail");
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        write_traces(&mut buf, &sample()).expect("write");
        buf.truncate(buf.len() - 3);
        // A bare 16-byte header claiming 2^40 ops in one thread.
        let mut huge = Vec::new();
        huge.extend_from_slice(b"LVAT");
        huge.extend_from_slice(&1u16.to_le_bytes());
        huge.extend_from_slice(&1u16.to_le_bytes());
        huge.extend_from_slice(&(1u64 << 40).to_le_bytes());
        for input in [buf, huge] {
            let err = read_traces(input.as_slice()).expect_err("must fail");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LVAT");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(77); // bogus tag
        assert!(read_traces(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_set_round_trips() {
        let mut buf = Vec::new();
        write_traces(&mut buf, &[]).expect("write");
        assert_eq!(read_traces(buf.as_slice()).expect("read"), vec![]);
    }
}
