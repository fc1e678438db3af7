//! `liballprof`-style text trace format.
//!
//! One line per MPI call, colon-separated, with the start timestamp first
//! and the end timestamp last — the shape shown in the paper's Fig. 2
//! (`MPI_Irecv:1547003:0:3500:15:...:1547032`). Rank sections are
//! introduced by a header line. Timestamps are nanoseconds.
//!
//! The format round-trips exactly: `parse(write(trace)) == trace`.

use crate::op::{CallKind, TraceRecord};
use crate::program::{RankTrace, Trace};
use std::fmt::Write as _;

/// Serialise a full trace to the text format.
pub fn write_trace(trace: &Trace) -> String {
    let mut out = String::new();
    write_trace_to(&mut out, trace).expect("writing to a String cannot fail");
    out
}

/// Serialise a trace into any [`std::fmt::Write`] sink. Million-record
/// traces stream straight to a file this way instead of round-tripping
/// through one giant `String`.
pub fn write_trace_to<W: std::fmt::Write>(out: &mut W, trace: &Trace) -> std::fmt::Result {
    writeln!(out, "# llamp-trace nranks={}", trace.nranks)?;
    let mut line = String::new();
    for rank in &trace.ranks {
        writeln!(out, "@rank {}", rank.rank)?;
        for rec in &rank.records {
            line.clear();
            write_record(&mut line, rec);
            out.write_str(&line)?;
        }
    }
    Ok(())
}

fn write_record(out: &mut String, rec: &TraceRecord) {
    let name = rec.kind.name();
    let s = rec.start;
    let e = rec.end;
    let _ = match &rec.kind {
        CallKind::Init | CallKind::Finalize | CallKind::Barrier => {
            writeln!(out, "{name}:{s}:{e}")
        }
        CallKind::Send { peer, bytes, tag } | CallKind::Recv { peer, bytes, tag } => {
            writeln!(out, "{name}:{s}:{peer}:{bytes}:{tag}:{e}")
        }
        CallKind::Isend {
            peer,
            bytes,
            tag,
            req,
        }
        | CallKind::Irecv {
            peer,
            bytes,
            tag,
            req,
        } => {
            writeln!(out, "{name}:{s}:{peer}:{bytes}:{tag}:{req}:{e}")
        }
        CallKind::Wait { req } => writeln!(out, "{name}:{s}:{req}:{e}"),
        CallKind::Waitall { reqs } => {
            let list = reqs
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",");
            writeln!(out, "{name}:{s}:{list}:{e}")
        }
        CallKind::Sendrecv {
            dst,
            send_bytes,
            send_tag,
            src,
            recv_bytes,
            recv_tag,
        } => writeln!(
            out,
            "{name}:{s}:{dst}:{send_bytes}:{send_tag}:{src}:{recv_bytes}:{recv_tag}:{e}"
        ),
        CallKind::Bcast { bytes, root } | CallKind::Reduce { bytes, root } => {
            writeln!(out, "{name}:{s}:{bytes}:{root}:{e}")
        }
        CallKind::Allreduce { bytes }
        | CallKind::Allgather { bytes }
        | CallKind::Alltoall { bytes } => writeln!(out, "{name}:{s}:{bytes}:{e}"),
    };
}

/// Errors the parser reports, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse the text format back into a [`Trace`]. The world size is the
/// header's `# llamp-trace nranks=N` when present, else the number of
/// rank sections; the two must agree.
pub fn parse_trace(input: &str) -> Result<Trace, ParseError> {
    // Chaos site: simulates a torn/corrupted read surfacing as a typed
    // parse error (never a panic, never silent truncation).
    if llamp_faults::should_inject("trace.parse.corrupt") {
        return Err(ParseError {
            line: 0,
            message: "injected fault: trace.parse.corrupt".into(),
        });
    }
    let mut nranks: Option<u32> = None;
    let mut ranks: Vec<RankTrace> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("llamp-trace nranks=") {
                nranks = Some(n.parse().map_err(|e| err(format!("bad nranks: {e}")))?);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("@rank") {
            let rank: u32 = rest
                .trim()
                .parse()
                .map_err(|e| err(format!("bad rank header: {e}")))?;
            ranks.push(RankTrace {
                rank,
                records: Vec::new(),
            });
            continue;
        }
        let Some(current) = ranks.last_mut() else {
            return Err(err("record before any @rank header".into()));
        };
        current.records.push(parse_record(line, lineno)?);
    }
    let found = u32::try_from(ranks.len()).map_err(|_| ParseError {
        line: 0,
        message: format!("{} rank sections overflow u32", ranks.len()),
    })?;
    let nranks = nranks.unwrap_or(found);
    if nranks != found {
        return Err(ParseError {
            line: 0,
            message: format!("header says {} ranks, found {}", nranks, found),
        });
    }
    Ok(Trace { nranks, ranks })
}

/// The widest record line (`MPI_Sendrecv`) has 9 colon-separated fields,
/// so one line parses into a fixed-size buffer — no per-line `Vec`.
const MAX_FIELDS: usize = 9;

fn parse_record(line: &str, lineno: usize) -> Result<TraceRecord, ParseError> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    // Split into the stack buffer; fields past the widest valid arity are
    // only counted, so the arity error still reports the true total.
    let mut fields: [&str; MAX_FIELDS] = [""; MAX_FIELDS];
    let mut count = 0usize;
    for part in line.split(':') {
        if count < MAX_FIELDS {
            fields[count] = part;
        }
        count += 1;
    }
    let parts = &fields[..count.min(MAX_FIELDS)];
    let name = parts[0];
    let need = |n: usize| -> Result<(), ParseError> {
        if count != n {
            Err(err(format!("{name}: expected {n} fields, found {count}")))
        } else {
            Ok(())
        }
    };
    let f = |i: usize| -> Result<f64, ParseError> {
        parts[i]
            .parse()
            .map_err(|e| err(format!("{name}: bad float field {i}: {e}")))
    };
    let u = |i: usize| -> Result<u64, ParseError> {
        parts[i]
            .parse()
            .map_err(|e| err(format!("{name}: bad int field {i}: {e}")))
    };
    let u32f = |i: usize| -> Result<u32, ParseError> { u(i).map(|v| v as u32) };

    let (kind, start, end) = match name {
        "MPI_Init" | "MPI_Finalize" | "MPI_Barrier" => {
            need(3)?;
            let k = match name {
                "MPI_Init" => CallKind::Init,
                "MPI_Finalize" => CallKind::Finalize,
                _ => CallKind::Barrier,
            };
            (k, f(1)?, f(2)?)
        }
        "MPI_Send" | "MPI_Recv" => {
            need(6)?;
            let k = if name == "MPI_Send" {
                CallKind::Send {
                    peer: u32f(2)?,
                    bytes: u(3)?,
                    tag: u32f(4)?,
                }
            } else {
                CallKind::Recv {
                    peer: u32f(2)?,
                    bytes: u(3)?,
                    tag: u32f(4)?,
                }
            };
            (k, f(1)?, f(5)?)
        }
        "MPI_Isend" | "MPI_Irecv" => {
            need(7)?;
            let (peer, bytes, tag, req) = (u32f(2)?, u(3)?, u32f(4)?, u32f(5)?);
            let k = if name == "MPI_Isend" {
                CallKind::Isend {
                    peer,
                    bytes,
                    tag,
                    req,
                }
            } else {
                CallKind::Irecv {
                    peer,
                    bytes,
                    tag,
                    req,
                }
            };
            (k, f(1)?, f(6)?)
        }
        "MPI_Wait" => {
            need(4)?;
            (CallKind::Wait { req: u32f(2)? }, f(1)?, f(3)?)
        }
        "MPI_Waitall" => {
            need(4)?;
            let reqs = parts[2]
                .split(',')
                .map(|s| {
                    s.parse::<u32>()
                        .map_err(|e| err(format!("bad request id: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            (CallKind::Waitall { reqs }, f(1)?, f(3)?)
        }
        "MPI_Sendrecv" => {
            need(9)?;
            (
                CallKind::Sendrecv {
                    dst: u32f(2)?,
                    send_bytes: u(3)?,
                    send_tag: u32f(4)?,
                    src: u32f(5)?,
                    recv_bytes: u(6)?,
                    recv_tag: u32f(7)?,
                },
                f(1)?,
                f(8)?,
            )
        }
        "MPI_Bcast" | "MPI_Reduce" => {
            need(5)?;
            let (bytes, root) = (u(2)?, u32f(3)?);
            let k = if name == "MPI_Bcast" {
                CallKind::Bcast { bytes, root }
            } else {
                CallKind::Reduce { bytes, root }
            };
            (k, f(1)?, f(4)?)
        }
        "MPI_Allreduce" | "MPI_Allgather" | "MPI_Alltoall" => {
            need(4)?;
            let bytes = u(2)?;
            let k = match name {
                "MPI_Allreduce" => CallKind::Allreduce { bytes },
                "MPI_Allgather" => CallKind::Allgather { bytes },
                _ => CallKind::Alltoall { bytes },
            };
            (k, f(1)?, f(3)?)
        }
        other => return Err(err(format!("unknown MPI call {other}"))),
    };
    Ok(TraceRecord { kind, start, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramSet, TracerConfig};

    fn sample_trace() -> Trace {
        ProgramSet::spmd(2, |rank, b| {
            b.comp(1_000.0);
            if rank == 0 {
                let r = b.isend(1, 3_500, 15);
                b.comp(250.0);
                b.wait(r);
            } else {
                let r = b.irecv(0, 3_500, 15);
                b.wait(r);
            }
            b.comp(42.5);
            b.allreduce(8);
            b.sendrecv(1 - rank, 64, 1, 1 - rank, 64, 1);
            b.barrier();
            b.bcast(1024, 0);
            b.reduce(512, 1);
            b.allgather(16);
            b.alltoall(32);
        })
        .trace(&TracerConfig::default())
    }

    #[test]
    fn round_trip_identity() {
        let tr = sample_trace();
        let text = write_trace(&tr);
        let back = parse_trace(&text).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn parse_rejects_unknown_call() {
        let text = "# llamp-trace nranks=1\n@rank 0\nMPI_Bogus:0:0\n";
        let e = parse_trace(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown MPI call"));
    }

    #[test]
    fn parse_rejects_wrong_arity() {
        let text = "# llamp-trace nranks=1\n@rank 0\nMPI_Send:0:1:2:3\n";
        let e = parse_trace(text).unwrap_err();
        assert!(e.message.contains("expected 6 fields"));
    }

    #[test]
    fn parse_rejects_headerless_records() {
        let text = "MPI_Init:0:0\n";
        let e = parse_trace(text).unwrap_err();
        assert!(e.message.contains("before any @rank"));
    }

    #[test]
    fn rank_count_mismatch_detected() {
        let text = "# llamp-trace nranks=3\n@rank 0\nMPI_Init:0:0\n";
        let e = parse_trace(text).unwrap_err();
        assert!(e.message.contains("header says 3"));
    }

    #[test]
    fn parse_rejects_bad_rank_header() {
        let text = "# llamp-trace nranks=1\n\n@rank zero\nMPI_Init:0:0\n";
        let e = parse_trace(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bad rank header"), "{}", e.message);
    }

    #[test]
    fn parse_rejects_bad_nranks() {
        let text = "# a comment\n# llamp-trace nranks=-2\n@rank 0\nMPI_Init:0:0\n";
        let e = parse_trace(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad nranks"), "{}", e.message);
    }

    #[test]
    fn headerless_trace_counts_its_rank_sections() {
        let text = "@rank 0\nMPI_Init:0:0\n@rank 1\nMPI_Init:0:0\nMPI_Finalize:1:1\n";
        let tr = parse_trace(text).unwrap();
        assert_eq!(tr.nranks, 2);
        assert_eq!(tr.ranks.len(), 2);
        assert_eq!(tr.ranks[1].rank, 1);
        assert_eq!(tr.ranks[1].records.len(), 2);
    }

    #[test]
    fn waitall_requests_round_trip() {
        let tr = ProgramSet::spmd(1, |_, b| {
            let a = b.irecv(0, 8, 0);
            let c = b.isend(0, 8, 0);
            b.waitall(vec![a, c]);
        })
        .trace(&TracerConfig::default());
        let back = parse_trace(&write_trace(&tr)).unwrap();
        assert_eq!(tr, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::op::CallKind;
    use crate::program::{RankTrace, Trace};
    use crate::TraceRecord;
    use proptest::prelude::*;

    fn kind_strategy() -> impl Strategy<Value = CallKind> {
        prop_oneof![
            Just(CallKind::Barrier),
            (0u32..8, 0u64..10_000, 0u32..100).prop_map(|(peer, bytes, tag)| CallKind::Send {
                peer,
                bytes,
                tag
            }),
            (0u32..8, 0u64..10_000, 0u32..100).prop_map(|(peer, bytes, tag)| CallKind::Recv {
                peer,
                bytes,
                tag
            }),
            (0u32..8, 0u64..10_000, 0u32..100, 0u32..32).prop_map(|(peer, bytes, tag, req)| {
                CallKind::Isend {
                    peer,
                    bytes,
                    tag,
                    req,
                }
            }),
            (0u64..10_000).prop_map(|bytes| CallKind::Allreduce { bytes }),
            (0u64..10_000, 0u32..8).prop_map(|(bytes, root)| CallKind::Bcast { bytes, root }),
            (0u32..32).prop_map(|req| CallKind::Wait { req }),
            prop::collection::vec(0u32..32, 1..5).prop_map(|reqs| CallKind::Waitall { reqs }),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_traces_round_trip(
            kinds in prop::collection::vec(kind_strategy(), 0..50),
            gaps in prop::collection::vec(0.0f64..1e6, 0..50),
        ) {
            let mut records = vec![TraceRecord { kind: CallKind::Init, start: 0.0, end: 0.0 }];
            let mut clock = 0.0;
            for (i, kind) in kinds.into_iter().enumerate() {
                clock += gaps.get(i).copied().unwrap_or(1.0);
                records.push(TraceRecord { kind, start: clock, end: clock });
            }
            let tr = Trace { nranks: 1, ranks: vec![RankTrace { rank: 0, records }] };
            let back = parse_trace(&write_trace(&tr)).unwrap();
            prop_assert_eq!(tr, back);
        }
    }
}
