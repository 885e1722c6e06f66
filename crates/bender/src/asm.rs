//! A small assembly format for command programs.
//!
//! The real DRAM Bender ships a programming toolchain; this module
//! provides the equivalent text form so programs can be stored in
//! files, diffed, and replayed. The format is line-oriented:
//!
//! ```text
//! # NOT: src row 0 → destination rows around 512
//! ACT  0 0        ; bank 0, row 0
//! WAIT 32ns       ; respect tRAS
//! PRE  0
//! ACT  0 512      ; violated tRP (next cycle)
//! WAIT 32ns
//! PRE  0
//! RD   0 512
//! ```
//!
//! `WAIT n` advances whole cycles; `WAIT xns` advances at least `x`
//! nanoseconds at the program's speed bin. `WR` takes hex row data
//! (column 0 is the least-significant bit of the first hex digit
//! group). `#` or `;` start comments.

use crate::error::{BenderError, Result};
use crate::program::{DdrCommand, Program, ProgramBuilder, TimedCommand};
use dram_core::{BankId, GlobalRow, PackedBits, SpeedBin};
use std::fmt::Write as _;

/// Serializes a program to assembly text.
///
/// Absolute cycles are converted to `WAIT` gaps, so the round-trip
/// through [`parse`] reproduces the schedule exactly.
pub fn format(program: &Program) -> String {
    let mut out = String::new();
    let mut cursor = 0u64;
    for TimedCommand { cycle, command } in program.commands() {
        if *cycle > cursor {
            let _ = writeln!(out, "WAIT {}", cycle - cursor);
        }
        cursor = cycle + 1;
        match command {
            DdrCommand::Act(b, r) => {
                let _ = writeln!(out, "ACT  {} {}", b.index(), r.index());
            }
            DdrCommand::Pre(b) => {
                let _ = writeln!(out, "PRE  {}", b.index());
            }
            DdrCommand::Rd(b, r) => {
                let _ = writeln!(out, "RD   {} {}", b.index(), r.index());
            }
            DdrCommand::Wr(b, data) => {
                let _ = writeln!(out, "WR   {} {}", b.index(), bits_to_hex(data));
            }
            DdrCommand::Ref => {
                let _ = writeln!(out, "REF");
            }
        }
    }
    out
}

/// Parses assembly text into a program for the given speed bin.
///
/// # Errors
///
/// Returns [`BenderError::BadProgram`] with a line-indexed message for
/// any syntax problem.
pub fn parse(text: &str, speed: SpeedBin) -> Result<Program> {
    let mut b = ProgramBuilder::new(speed);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split(['#', ';']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line").to_ascii_uppercase();
        let bad = |detail: String| BenderError::BadProgram {
            index: lineno,
            detail,
        };
        match op.as_str() {
            "ACT" => {
                let bank = parse_usize(parts.next(), "bank", lineno)?;
                let row = parse_usize(parts.next(), "row", lineno)?;
                b.act(BankId(bank), GlobalRow(row));
            }
            "PRE" => {
                let bank = parse_usize(parts.next(), "bank", lineno)?;
                b.pre(BankId(bank));
            }
            "RD" => {
                let bank = parse_usize(parts.next(), "bank", lineno)?;
                let row = parse_usize(parts.next(), "row", lineno)?;
                b.rd(BankId(bank), GlobalRow(row));
            }
            "WR" => {
                let bank = parse_usize(parts.next(), "bank", lineno)?;
                let hex = parts
                    .next()
                    .ok_or_else(|| bad("WR needs hex data".into()))?;
                let data = hex_to_bits(hex).map_err(|e| bad(format!("bad WR data: {e}")))?;
                b.wr(BankId(bank), data);
            }
            "REF" => {
                b.push(DdrCommand::Ref);
            }
            "WAIT" => {
                let arg = parts
                    .next()
                    .ok_or_else(|| bad("WAIT needs an argument".into()))?;
                if let Some(ns) = arg.strip_suffix("ns") {
                    let ns: f64 = ns
                        .parse()
                        .map_err(|_| bad(format!("bad WAIT duration '{arg}'")))?;
                    b.wait_ns(ns);
                } else {
                    let cycles: u64 = arg
                        .parse()
                        .map_err(|_| bad(format!("bad WAIT cycle count '{arg}'")))?;
                    b.wait_cycles(cycles);
                }
            }
            other => return Err(bad(format!("unknown opcode '{other}'"))),
        }
        if parts.next().is_some() && op != "WR" {
            return Err(bad("trailing tokens".into()));
        }
    }
    Ok(b.build())
}

fn parse_usize(tok: Option<&str>, what: &str, lineno: usize) -> Result<usize> {
    tok.ok_or_else(|| BenderError::BadProgram {
        index: lineno,
        detail: format!("missing {what}"),
    })?
    .parse()
    .map_err(|_| BenderError::BadProgram {
        index: lineno,
        detail: format!("bad {what}"),
    })
}

/// Encodes a bit row as hex, 4 bits per digit, column 0 first
/// (little-endian nibbles).
pub fn bits_to_hex(bits: &PackedBits) -> String {
    let mut s = String::with_capacity(bits.len().div_ceil(4));
    for k in 0..bits.len().div_ceil(4) {
        let v = bits.words()[k / 16] >> (4 * (k % 16)) & 0xF;
        let _ = write!(s, "{v:x}");
    }
    s
}

/// Decodes [`bits_to_hex`] output (4 bits per hex digit).
pub fn hex_to_bits(hex: &str) -> std::result::Result<PackedBits, String> {
    let mut bits = PackedBits::zeros(hex.len() * 4);
    for (k, c) in hex.chars().enumerate() {
        let v = c
            .to_digit(16)
            .ok_or_else(|| format!("invalid hex digit '{c}'"))?;
        for i in 0..4 {
            bits.set(4 * k + i, (v >> i) & 1 == 1);
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::Bit;

    fn not_program() -> Program {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2666);
        b.seq_copy_invert(BankId(0), GlobalRow(0), GlobalRow(512));
        b.build()
    }

    #[test]
    fn round_trip_preserves_schedule() {
        let p = not_program();
        let text = format(&p);
        let back = parse(&text, SpeedBin::Mt2666).unwrap();
        assert_eq!(p, back, "text:\n{text}");
    }

    #[test]
    fn round_trip_with_data() {
        let mut b = ProgramBuilder::new(SpeedBin::Mt2133);
        let data: Vec<Bit> = (0..32).map(|i| Bit::from(i % 3 == 0)).collect();
        b.seq_write_row(BankId(2), GlobalRow(7), data);
        let p = b.build();
        let back = parse(&format(&p), SpeedBin::Mt2133).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\nACT 0 5 ; open row 5\n\nWAIT 44\nPRE 0\n";
        let p = parse(text, SpeedBin::Mt2666).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.commands()[1].cycle, 45);
    }

    #[test]
    fn wait_ns_respects_speed_bin() {
        let p2133 = parse("ACT 0 0\nWAIT 30ns\nPRE 0\n", SpeedBin::Mt2133).unwrap();
        let p2666 = parse("ACT 0 0\nWAIT 30ns\nPRE 0\n", SpeedBin::Mt2666).unwrap();
        // Faster clock ⇒ more cycles for the same nanoseconds.
        assert!(p2666.commands()[1].cycle > p2133.commands()[1].cycle);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("ACT 0 0\nBOGUS 1\n", SpeedBin::Mt2666).unwrap_err();
        match err {
            BenderError::BadProgram { index, detail } => {
                assert_eq!(index, 1);
                assert!(detail.contains("BOGUS"));
            }
            other => panic!("{other}"),
        }
        assert!(parse("ACT 0\n", SpeedBin::Mt2666).is_err());
        assert!(parse("WAIT xyz\n", SpeedBin::Mt2666).is_err());
        assert!(parse("WR 0 zz\n", SpeedBin::Mt2666).is_err());
    }

    #[test]
    fn hex_codec_round_trips() {
        let bits: Vec<Bit> = (0..64).map(|i| Bit::from((i * 7) % 5 == 0)).collect();
        let hex = bits_to_hex(&bits.clone().into());
        assert_eq!(hex.len(), 16);
        assert_eq!(hex_to_bits(&hex).unwrap(), bits.into());
    }

    #[test]
    fn parsed_program_executes() {
        use dram_core::{ChipId, DramModule};
        let cfg = dram_core::config::table1().remove(0).with_modeled_cols(16);
        let mut bender = crate::Bender::new(DramModule::new(cfg));
        let data: Vec<Bit> = (0..16).map(|i| Bit::from(i % 2 == 0)).collect();
        let text = std::format!(
            "ACT 0 3\nWAIT 14ns\nWR 0 {}\nWAIT 33ns\nPRE 0\nWAIT 14ns\nACT 0 3\nWAIT 14ns\nRD 0 3\nWAIT 33ns\nPRE 0\n",
            bits_to_hex(&data.clone().into())
        );
        let p = parse(&text, bender.speed()).unwrap();
        let exec = bender.execute(ChipId(0), &p).unwrap();
        assert_eq!(exec.reads.len(), 1);
        assert_eq!(exec.reads[0].data, data);
    }
}
