//! In-DRAM true random number generation (QUAC-TRNG lineage, §8.1).
//!
//! Simultaneously activating rows initialized to a *tie* (half 1s,
//! half 0s on each bitline) leaves the sense amplifier with no
//! differential to amplify: the outcome is decided by analog noise.
//! QUAC-TRNG (Olgun et al., ISCA'21) turns this into a true random
//! number generator with quadruple row activation; the same mechanism
//! falls out of this library's in-subarray multi-row activation.
//!
//! Run with: `cargo run --release --example in_dram_trng`

use dram_core::{BankId, ChipId, SubarrayId};
use fcdram::mapping::discover_in_subarray;
use fcdram::{Fcdram, FcdramError, PackedBits};

fn main() -> Result<(), FcdramError> {
    let cfg = dram_core::config::table1().remove(0).with_modeled_cols(256);
    println!("TRNG on {} via tied in-subarray activation\n", cfg.label());
    let mut fc = Fcdram::new(cfg);
    let bank = BankId(0);

    // Find 4-row in-subarray activation sets (QUAC's configuration).
    let sets = discover_in_subarray(fc.bender_mut(), ChipId(0), bank, SubarrayId(3), 16_384, 8)?;
    let entries = sets.get(&4).cloned().unwrap_or_default();
    assert!(!entries.is_empty(), "no 4-row sets found");
    println!("{} four-row activation sets discovered", entries.len());

    let cols = fc.cols();
    let ones = PackedBits::ones(cols);
    let zeros = PackedBits::zeros(cols);
    let tie = [ones.clone(), ones, zeros.clone(), zeros];

    // Harvest raw bits: each activation with a 2–2 tie yields one
    // noise-resolved bit per column, read from the first raised row.
    let mut raw_bits: Vec<bool> = Vec::new();
    for round in 0..24usize {
        let entry = &entries[round % entries.len()];
        let (layout, _) = fc.maj_outcome(bank, entry, &tie)?;
        let row = fc.read_row(bank, layout.result_rows[0])?;
        raw_bits.extend(row.iter().map(|b| b.as_bool()));
    }
    let n = raw_bits.len();
    let ones_frac = raw_bits.iter().filter(|b| **b).count() as f64 / n as f64;
    println!("\nraw bits      : {n}");
    println!("raw bias      : {:.2}% ones", ones_frac * 100.0);

    // Serial correlation of the raw stream.
    let mut agree = 0usize;
    for w in raw_bits.windows(2) {
        if w[0] == w[1] {
            agree += 1;
        }
    }
    println!(
        "raw serial    : {:.2}% adjacent agreement (50% ideal)",
        agree as f64 / (n - 1) as f64 * 100.0
    );

    // Von Neumann extraction removes residual bias (as DRAM TRNG
    // papers do): 01 → 0, 10 → 1, 00/11 → discard.
    let mut extracted = Vec::new();
    for pair in raw_bits.chunks(2) {
        if pair.len() == 2 && pair[0] != pair[1] {
            extracted.push(pair[0]);
        }
    }
    let ex_ones = extracted.iter().filter(|b| **b).count() as f64;
    println!("\nafter von Neumann extraction:");
    println!(
        "bits          : {} ({:.0}% yield)",
        extracted.len(),
        extracted.len() as f64 / n as f64 * 100.0
    );
    if !extracted.is_empty() {
        println!(
            "bias          : {:.2}% ones",
            ex_ones / extracted.len() as f64 * 100.0
        );
    }

    // Pack the first bytes for display.
    let bytes: Vec<u8> = extracted
        .chunks(8)
        .filter(|c| c.len() == 8)
        .take(16)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |acc, (i, b)| acc | (u8::from(*b) << i))
        })
        .collect();
    print!("sample bytes  : ");
    for b in &bytes {
        print!("{b:02x} ");
    }
    println!();
    println!("\n(each 2–2 tie leaves ~0 differential on the bitline: the sense");
    println!(" amplifier resolves from noise — the paper's Fig. 16 worst case,");
    println!(" repurposed as an entropy source)");
    Ok(())
}
