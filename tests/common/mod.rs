//! Shared fixtures for the workspace integration suites.
//!
//! Each `tests/*.rs` file is its own crate; this module is included
//! with `mod common;` so the random-expression grammar and operand
//! derivation live in exactly one place.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use fcdram::PackedBits;

/// Deterministic expression generator: a random tree over `n` inputs
/// with the given node budget, driven by a splitmix-style stream.
/// Covers constants, NOT, wide `&`/`|` chains (exercising flattening
/// and the mapper), and XOR.
pub fn random_expr(n: usize, seed: u64, budget: usize) -> String {
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn gen(n: usize, state: &mut u64, budget: usize) -> String {
        let choice = next(state);
        if budget == 0 || choice % 100 < 25 {
            // Leaf: mostly variables, occasionally a constant.
            return if choice.is_multiple_of(13) {
                if choice.is_multiple_of(2) {
                    "0".into()
                } else {
                    "1".into()
                }
            } else {
                format!("v{}", next(state) as usize % n)
            };
        }
        match choice % 100 {
            25..=39 => format!("!({})", gen(n, state, budget - 1)),
            40..=59 => {
                // Wide chains exercise flattening and the mapper.
                let arity = 2 + next(state) as usize % 4;
                let parts: Vec<String> =
                    (0..arity).map(|_| gen(n, state, budget / arity)).collect();
                let op = if choice.is_multiple_of(2) {
                    " & "
                } else {
                    " | "
                };
                format!("({})", parts.join(op))
            }
            60..=79 => format!(
                "({} ^ {})",
                gen(n, state, budget / 2),
                gen(n, state, budget / 2)
            ),
            _ => format!(
                "({} & {})",
                gen(n, state, budget / 2),
                gen(n, state, budget / 2)
            ),
        }
    }
    let mut state = seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    gen(n, &mut state, budget)
}

/// `n` packed operand rows of `lanes` deterministic bits each.
pub fn random_operands(n: usize, lanes: usize, seed: u64) -> Vec<PackedBits> {
    (0..n)
        .map(|i| PackedBits::seeded(seed, i as u64, lanes))
        .collect()
}
