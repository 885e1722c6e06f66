//! Property-based tests (proptest) on the core data structures and
//! invariants of the device model and library.

use dram_core::{
    is_shared_col, BankId, Bit, Chip, ChipId, Col, GlobalRow, LocalRow, MultiActivation,
    PatternKind, StripeSide, SubarrayId,
};
use proptest::prelude::*;

fn hynix_chip(cols: usize) -> Chip {
    let cfg = dram_core::config::table1()
        .remove(0)
        .with_modeled_cols(cols);
    Chip::new(cfg, ChipId(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row address split/join round-trips for all valid rows.
    #[test]
    fn geometry_split_join_roundtrip(row in 0usize..(64 * 512)) {
        let geom = dram_core::Geometry::new(16, 64, 512, 64).unwrap();
        let (sub, local) = geom.split_row(GlobalRow(row)).unwrap();
        prop_assert_eq!(geom.join_row(sub, local).unwrap(), GlobalRow(row));
        prop_assert!(local.index() < 512);
    }

    /// Decoder activations always contain the addressed rows, have
    /// power-of-two sizes, and respect the N:N / N:2N families.
    #[test]
    fn decoder_families_hold(f in 0usize..512, l in 0usize..512) {
        let chip = hynix_chip(16);
        let geom = *chip.geometry();
        let rf = GlobalRow(f);
        let rl = GlobalRow(512 + l);
        match chip.decoder().activation(&geom, rf, rl) {
            MultiActivation::CrossSubarray { first_rows, second_rows, kind, .. } => {
                prop_assert!(first_rows.contains(&LocalRow(f)));
                prop_assert!(second_rows.contains(&LocalRow(l)));
                prop_assert!(first_rows.len().is_power_of_two());
                prop_assert!(second_rows.len().is_power_of_two());
                match kind {
                    PatternKind::NN => prop_assert_eq!(first_rows.len(), second_rows.len()),
                    PatternKind::N2N => {
                        prop_assert_eq!(2 * first_rows.len(), second_rows.len())
                    }
                }
                prop_assert!(first_rows.len() + second_rows.len() <= 48);
            }
            MultiActivation::SecondOnly | MultiActivation::SecondIgnored => {}
            MultiActivation::SameSubarray { .. } => prop_assert!(false, "different subarrays"),
        }
    }

    /// The decoder is a pure function of (chip, rf, rl).
    #[test]
    fn decoder_is_deterministic(f in 0usize..512, l in 0usize..512) {
        let chip = hynix_chip(16);
        let geom = *chip.geometry();
        let rf = GlobalRow(f);
        let rl = GlobalRow(512 + l);
        prop_assert_eq!(
            chip.decoder().activation(&geom, rf, rl),
            chip.decoder().activation(&geom, rf, rl)
        );
    }

    /// Write/read round-trips for arbitrary data on arbitrary rows.
    #[test]
    fn chip_write_read_roundtrip(
        row in 0usize..(64 * 512),
        bank in 0usize..16,
        seed in any::<u64>(),
    ) {
        let mut chip = hynix_chip(32);
        let bits: Vec<Bit> = (0..32)
            .map(|c| Bit::from(dram_core::math::hash_to_unit(
                dram_core::math::mix2(seed, c as u64)) < 0.5))
            .collect();
        chip.write_row_direct(BankId(bank), GlobalRow(row), &bits).unwrap();
        prop_assert_eq!(chip.read_row_direct(BankId(bank), GlobalRow(row)).unwrap(), bits);
    }

    /// Charge sharing always lands between the min and max of the
    /// participating voltages and the precharge level.
    #[test]
    fn charge_share_bounded(voltages in prop::collection::vec(0.0f64..1.2, 1..16)) {
        let p = dram_core::AnalogParams::ddr4_default();
        let v = p.bitline_after_share(&voltages);
        let lo = voltages.iter().cloned().fold(p.v_pre(), f64::min);
        let hi = voltages.iter().cloned().fold(p.v_pre(), f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} not in [{lo}, {hi}]");
    }

    /// Margin classification is symmetric under swapping families.
    #[test]
    fn margin_class_symmetry(diff in -4.0f64..4.0) {
        use dram_core::analog::classify_margin;
        let and_like = classify_margin(diff, 0.9);
        let or_like = classify_margin(-diff, 0.1);
        prop_assert_eq!(and_like, or_like);
    }

    /// Success probabilities are valid probabilities for any event.
    #[test]
    fn not_probability_in_unit_interval(
        k in 2usize..=48,
        src in 0.0f64..1.0,
        dst in 0.0f64..1.0,
        t in 0.0f64..120.0,
        row in 0usize..512,
        col in 0usize..64,
    ) {
        let chip = hynix_chip(16);
        let ev = dram_core::NotEvent {
            total_rows: k,
            src_dist: src,
            dst_dist: dst,
            temperature: dram_core::Temperature::celsius(t),
        };
        let cell = dram_core::CellRef {
            bank: BankId(0),
            subarray: SubarrayId(1),
            row: LocalRow(row),
            col: Col(col),
            stripe: 1,
        };
        let p = chip.reliability().not_success_prob(&ev, cell);
        prop_assert!((0.0..=1.0).contains(&p), "{p}");
    }

    /// Stripe wiring: a column is shared between (s, s+1) iff it is
    /// Below-wired in s and Above-wired in s+1; exactly half of all
    /// columns are shared for any pair.
    #[test]
    fn stripe_wiring_consistency(s in 0usize..63, cols in 2usize..128) {
        let cols = cols & !1;
        let shared = (0..cols)
            .filter(|c| is_shared_col(SubarrayId(s), Col(*c)))
            .count();
        prop_assert_eq!(shared, cols / 2);
        for c in 0..cols {
            let is_shared = is_shared_col(SubarrayId(s), Col(c));
            prop_assert_eq!(
                is_shared,
                StripeSide::of(SubarrayId(s), Col(c)) == StripeSide::Below
            );
            prop_assert_eq!(
                is_shared,
                StripeSide::of(SubarrayId(s + 1), Col(c)) == StripeSide::Above
            );
        }
    }

    /// Box statistics are order statistics: min ≤ q1 ≤ median ≤ q3 ≤ max,
    /// and the mean lies within [min, max].
    #[test]
    fn box_stats_ordering(values in prop::collection::vec(0.0f64..100.0, 1..200)) {
        let s = characterize::stats::BoxStats::from_values(&values).unwrap();
        prop_assert!(s.min <= s.q1 + 1e-12);
        prop_assert!(s.q1 <= s.median + 1e-12);
        prop_assert!(s.median <= s.q3 + 1e-12);
        prop_assert!(s.q3 <= s.max + 1e-12);
        prop_assert!(s.mean >= s.min - 1e-12 && s.mean <= s.max + 1e-12);
        prop_assert_eq!(s.count, values.len());
    }

    /// Sampled trial counts stay within the binomial support and are
    /// deterministic per key.
    #[test]
    fn sampled_trials_in_support(p in 0.0f64..1.0, trials in 1u32..2000, key in any::<u64>()) {
        let s = fcdram::sample_trials(p, trials, key);
        prop_assert!(s <= trials);
        prop_assert_eq!(s, fcdram::sample_trials(p, trials, key));
    }

    /// The hoisted row sampler draws exactly the per-cell deviate it
    /// replaces: `unit(c)` is `trial_unit(mix3(op, key, c), 0)`, bit
    /// for bit, and `sample` thresholds it.
    #[test]
    fn row_sampler_matches_trial_unit(
        seed in any::<u64>(),
        op in any::<u64>(),
        key in any::<u64>(),
        col in any::<usize>(),
        p in 0.0f64..1.0,
    ) {
        let var = dram_core::ProcessVariation::new(seed);
        let sampler = var.row_sampler(op, key);
        for c in [col, col / 2, col % 8192] {
            let want = var.trial_unit(dram_core::math::mix3(op, key, c as u64), 0);
            prop_assert_eq!(sampler.unit(c).to_bits(), want.to_bits());
            prop_assert_eq!(sampler.sample(c, p), want < p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary programs survive the assembly round-trip exactly.
    #[test]
    fn asm_round_trips_arbitrary_programs(
        ops in prop::collection::vec((0u8..5, 0usize..16, 0usize..2048, 0u64..64), 1..24),
        speed_idx in 0usize..4,
    ) {
        use bender::{DdrCommand, ProgramBuilder};
        let speed = dram_core::SpeedBin::ALL[speed_idx];
        let mut b = ProgramBuilder::new(speed);
        for (kind, bank, row, wait) in ops {
            match kind {
                0 => { b.act(BankId(bank), GlobalRow(row)); }
                1 => { b.pre(BankId(bank)); }
                2 => { b.rd(BankId(bank), GlobalRow(row)); }
                3 => {
                    let data: Vec<Bit> =
                        (0..16).map(|i| Bit::from((row + i) % 3 == 0)).collect();
                    b.wr(BankId(bank), data);
                }
                _ => { b.push(DdrCommand::Ref); }
            }
            b.wait_cycles(wait);
        }
        let p = b.build();
        let text = bender::asm::format(&p);
        let back = bender::asm::parse(&text, speed).unwrap();
        prop_assert_eq!(back, p);
    }

    /// Hex bit codec round-trips for any bit vector whose length is a
    /// multiple of four.
    #[test]
    fn asm_hex_codec_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..256)) {
        let bits: Vec<Bit> = bits.into_iter().map(Bit::from).collect();
        let padded: Vec<Bit> = {
            let mut v = bits.clone();
            while !v.len().is_multiple_of(4) {
                v.push(Bit::Zero);
            }
            v
        };
        let hex = bender::asm::bits_to_hex(&padded.clone().into());
        prop_assert_eq!(bender::asm::hex_to_bits(&hex).unwrap(), padded.into());
    }

    /// RowHammer only ever disturbs the physically adjacent rows, and
    /// edge aggressors have exactly one victim.
    #[test]
    fn hammer_victims_are_adjacent(row in 0usize..512, activations in 0u64..1_000_000) {
        let mut chip = hynix_chip(8);
        let victims = chip.hammer(BankId(0), GlobalRow(row), activations).unwrap();
        let expected = usize::from(row > 0) + usize::from(row < 511);
        prop_assert_eq!(victims.len(), expected);
        for (v, _) in victims {
            prop_assert_eq!(v.index().abs_diff(row), 1);
        }
    }

    /// Energy costs are monotone in input count and never negative.
    #[test]
    fn energy_costs_monotone(n in 2usize..=16, bytes in 64usize..16384) {
        use dram_core::{EnergyParams, OpCost, SpeedBin, TimingParams};
        let t = TimingParams::default();
        let e = EnergyParams::default();
        let smaller = OpCost::in_dram_bitwise(&t, &e, SpeedBin::Mt2666, bytes, n);
        let larger = OpCost::in_dram_bitwise(&t, &e, SpeedBin::Mt2666, bytes, n + 1);
        prop_assert!(smaller.energy_pj > 0.0);
        prop_assert!(larger.energy_pj > smaller.energy_pj);
        prop_assert!(larger.latency_ns > smaller.latency_ns);
        let host = OpCost::host_bitwise(&t, &e, SpeedBin::Mt2666, bytes, n);
        prop_assert!(host.channel_bytes >= (n + 1) * bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full NOT pipeline preserves the invariant: destination
    /// cells on shared columns hold either ¬src (success) or their
    /// previous value (failure) — never anything else.
    #[test]
    fn not_outcome_cells_are_well_formed(seed in any::<u64>(), l in 0usize..128) {
        let mut chip = hynix_chip(16);
        let cols = 16;
        let src: Vec<Bit> = (0..cols)
            .map(|c| Bit::from(dram_core::math::hash_to_unit(
                dram_core::math::mix2(seed, c as u64)) < 0.5))
            .collect();
        chip.write_row_direct(BankId(0), GlobalRow(0), &src).unwrap();
        let out = chip.multi_act_copy(BankId(0), GlobalRow(0), GlobalRow(512 + l)).unwrap();
        for r in &out.rows {
            let cells = r.cols().zip(out.p_of(r)).zip(out.intended_of(r));
            for ((c, p), intended) in cells {
                prop_assert!((0.0..=1.0).contains(p));
                if r.roles[c % 2] == dram_core::CellRole::NotDst {
                    prop_assert_eq!(*intended, src[c].not());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row records against per-role aggregates
// ---------------------------------------------------------------------------

use dram_core::{CellRole, CsTerminal, OpOutcome, OutcomeKind};

/// Each role's `count` and `sum_p`, summed from `o`'s row records in
/// record order, must equal its `stats` bit for bit.
fn records_sum_to_stats(o: &OpOutcome) -> Result<(), String> {
    for role in CellRole::ALL {
        let (mut count, mut sum_p) = (0usize, 0.0f64);
        for r in &o.rows {
            for (c, p) in r.cols().zip(o.p_of(r)) {
                if r.roles[c % 2] == role {
                    count += 1;
                    sum_p += p;
                }
            }
        }
        let s = o.stats.role(role);
        prop_assert_eq!(count, s.count, "{:?} count of {:?}", role, o.kind);
        prop_assert_eq!(
            sum_p.to_bits(),
            s.sum_p.to_bits(),
            "{:?} sum_p of {:?}",
            role,
            o.kind
        );
    }
    Ok(())
}

/// Random bits in every row `(rf, rl)` raises.
fn stage_raised(chip: &mut Chip, rf: GlobalRow, rl: GlobalRow, seed: u64) {
    let geom = *chip.geometry();
    let (sub_f, _) = geom.split_row(rf).unwrap();
    let (sub_l, _) = geom.split_row(rl).unwrap();
    let groups = match chip.decoder().activation(&geom, rf, rl) {
        MultiActivation::SameSubarray { rows } => vec![(sub_f, rows)],
        MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            ..
        } => {
            vec![(sub_f, first_rows), (sub_l, second_rows)]
        }
        _ => Vec::new(),
    };
    for (sub, rows) in groups {
        for row in rows {
            let g = geom.join_row(sub, row).unwrap();
            let bits: Vec<Bit> = (0..geom.cols())
                .map(|c| Bit::from(mix2(mix2(seed, g.index() as u64), c as u64) & 1 == 1))
                .collect();
            chip.write_row_direct(BankId(0), g, &bits).unwrap();
        }
    }
}

/// The first `rl` from `from` on (wrapping within `sub`'s 512 rows)
/// whose activation with `rf` satisfies `want`.
fn find_partner(
    chip: &Chip,
    rf: GlobalRow,
    sub: usize,
    from: usize,
    want: impl Fn(&MultiActivation) -> bool,
) -> Option<GlobalRow> {
    (0..512)
        .map(|k| GlobalRow(sub * 512 + (from + k) % 512))
        .find(|rl| *rl != rf && want(&chip.decoder().activation(chip.geometry(), rf, *rl)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Row records and aggregates agree. For NOT, RowClone, in-subarray
    /// MAJ and a `CsTerminal::Both` charge share, each role's `count`
    /// and `sum_p`, summed from the outcome's rows in record order, are
    /// its `stats` bit for bit. Under a `*FirstRow` scope the outcome
    /// records only the terminal's first raised row; the terminal's
    /// other rows count toward `stats` alone.
    #[test]
    fn outcome_records_sum_to_their_stats(
        seed in any::<u64>(),
        f in 0usize..512,
        l in 0usize..512,
    ) {
        let mut chip = hynix_chip(32);
        let bank = BankId(0);
        let rf = GlobalRow(f);
        let cross = |a: &MultiActivation| matches!(a, MultiActivation::CrossSubarray { .. });
        let wide = |a: &MultiActivation| matches!(a, MultiActivation::CrossSubarray {
            first_rows, second_rows, simultaneous: true, ..
        } if first_rows.len() >= 2 && second_rows.len() >= 2);
        let multi = |a: &MultiActivation| matches!(
            a, MultiActivation::SameSubarray { rows } if rows.len() >= 3
        );
        let not_rl = find_partner(&chip, rf, 1, l, cross).expect("a cross-subarray NOT");
        let cs_rl = find_partner(&chip, rf, 1, l, wide).expect("a multi-row charge share");
        let same_rl = find_partner(&chip, rf, 0, l, multi).expect("a multi-row same-subarray pair");

        stage_raised(&mut chip, rf, not_rl, seed);
        let not = chip.multi_act_copy(bank, rf, not_rl).unwrap();
        chip.precharge(bank).unwrap();
        prop_assert!(matches!(not.kind, OutcomeKind::Not { .. }), "{:?}", not.kind);

        stage_raised(&mut chip, rf, cs_rl, seed ^ 1);
        let cs = chip.multi_act_charge_share(bank, rf, cs_rl).unwrap();
        chip.precharge(bank).unwrap();
        prop_assert!(matches!(cs.kind, OutcomeKind::Logic { .. }), "{:?}", cs.kind);

        stage_raised(&mut chip, rf, same_rl, seed ^ 2);
        let clone = chip.multi_act_copy(bank, rf, same_rl).unwrap();
        chip.precharge(bank).unwrap();
        stage_raised(&mut chip, rf, same_rl, seed ^ 3);
        let maj = chip.multi_act_charge_share(bank, rf, same_rl).unwrap();
        chip.precharge(bank).unwrap();
        for o in [&not, &cs, &clone, &maj] {
            prop_assert!(!o.rows.is_empty(), "{:?} recorded no row", o.kind);
            records_sum_to_stats(o)?;
        }

        let geom = *chip.geometry();
        let MultiActivation::CrossSubarray { first_rows, second_rows, .. } =
            chip.decoder().activation(&geom, rf, cs_rl)
        else {
            unreachable!("found above");
        };
        let terminals = [
            (CsTerminal::ComputeFirstRow, CellRole::Compute, cs_rl, &second_rows),
            (CsTerminal::ReferenceFirstRow, CellRole::Reference, rf, &first_rows),
        ];
        for (k, (scope, role, at, raised_rows)) in terminals.into_iter().enumerate() {
            stage_raised(&mut chip, rf, cs_rl, seed ^ (4 + k as u64));
            let o = chip.multi_act_charge_share_masked(bank, rf, cs_rl, scope).unwrap();
            chip.precharge(bank).unwrap();
            let (sub, _) = geom.split_row(at).unwrap();
            prop_assert_eq!(o.rows.len(), 1, "{:?} records one row", scope);
            let r = &o.rows[0];
            prop_assert_eq!((r.subarray, r.row), (sub, raised_rows[0]), "{:?}", scope);
            prop_assert_eq!(r.roles, [role; 2]);
            let s = o.stats.role(role);
            prop_assert_eq!(s.count, r.len * raised_rows.len(), "{:?} count", scope);
            for other in CellRole::ALL.into_iter().filter(|x| *x != role) {
                prop_assert_eq!(o.stats.role(other).count, 0, "{:?} {:?}", scope, other);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HostSubstrate against a per-`bool` reference model
// ---------------------------------------------------------------------------

use dram_core::math::mix2;
use dram_core::LogicOp;
use fcdram::{FcdramError, PackedBits};
use simdram::{BitRow, HostSubstrate, NativeOp, OpTrace, SimdramError, Substrate, TraceEntry};

/// The host golden model's contract, one `bool` per lane: LIFO slot
/// reuse, zeroed rows on allocation, a cap on live rows, a no-op double
/// free, the same error for the same mistake, and one trace entry per
/// successful call (a gate records only itself and returns the bits it
/// stored, whether or not it was given its operand values).
struct BoolHost {
    lanes: usize,
    rows: Vec<Option<Vec<bool>>>,
    free: Vec<usize>,
    capacity: usize,
    trace: OpTrace,
}

type ModelResult<T> = Result<T, SimdramError>;

impl BoolHost {
    fn new(lanes: usize, capacity: usize) -> Self {
        BoolHost {
            lanes,
            rows: Vec::new(),
            free: Vec::new(),
            capacity,
            trace: OpTrace::new(),
        }
    }

    fn record(&mut self, op: NativeOp) {
        self.trace.record(TraceEntry {
            op,
            executions: 1,
            predicted_success: 1.0,
        });
    }

    fn row(&self, id: usize) -> ModelResult<Vec<bool>> {
        self.rows
            .get(id)
            .and_then(|r| r.clone())
            .ok_or(SimdramError::BadHandle { id })
    }

    fn store(&mut self, id: usize, bits: Vec<bool>, op: NativeOp) -> ModelResult<PackedBits> {
        self.row(id)?;
        let packed = PackedBits::from_bools(&bits);
        self.rows[id] = Some(bits);
        self.record(op);
        Ok(packed)
    }

    fn live(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    fn alloc(&mut self) -> ModelResult<usize> {
        if let Some(id) = self.free.pop() {
            self.rows[id] = Some(vec![false; self.lanes]);
            return Ok(id);
        }
        if self.live() >= self.capacity {
            return Err(SimdramError::Substrate(FcdramError::OutOfRows));
        }
        self.rows.push(Some(vec![false; self.lanes]));
        Ok(self.rows.len() - 1)
    }

    fn free(&mut self, id: usize) {
        if let Some(slot) = self.rows.get_mut(id) {
            if slot.take().is_some() {
                self.free.push(id);
            }
        }
    }

    fn write(&mut self, id: usize, bits: &[bool]) -> ModelResult<()> {
        if bits.len() != self.lanes {
            return Err(SimdramError::LaneMismatch {
                expected: self.lanes,
                got: bits.len(),
            });
        }
        self.store(id, bits.to_vec(), NativeOp::HostWrite).map(drop)
    }

    fn read_packed(&mut self, id: usize) -> ModelResult<PackedBits> {
        let bits = self.row(id)?;
        self.record(NativeOp::HostRead);
        Ok(PackedBits::from_bools(&bits))
    }

    fn fill(&mut self, id: usize, value: bool) -> ModelResult<()> {
        self.store(id, vec![value; self.lanes], NativeOp::Fill)
            .map(drop)
    }

    fn copy(&mut self, src: usize, dst: usize) -> ModelResult<PackedBits> {
        let bits = self.row(src)?;
        self.store(dst, bits, NativeOp::Copy)
    }

    fn not(&mut self, a: usize, out: usize) -> ModelResult<PackedBits> {
        let bits = self.row(a)?.iter().map(|b| !b).collect();
        self.store(out, bits, NativeOp::Not)
    }

    fn logic(&mut self, op: LogicOp, ins: &[usize], out: usize) -> ModelResult<PackedBits> {
        if ins.len() < 2 || ins.len() > simdram::MAX_FAN_IN {
            return Err(SimdramError::Substrate(FcdramError::BadInputCount {
                n: ins.len(),
                max: simdram::MAX_FAN_IN,
            }));
        }
        let mut acc = vec![op.is_and_family(); self.lanes];
        for id in ins {
            for (a, b) in acc.iter_mut().zip(self.row(*id)?) {
                *a = if op.is_and_family() { *a && b } else { *a || b };
            }
        }
        if op.is_inverted_terminal() {
            acc.iter_mut().for_each(|a| *a = !*a);
        }
        self.store(out, acc, NativeOp::Logic(op, ins.len() as u8))
    }
}

fn lane_bits(seed: u64, len: usize) -> Vec<bool> {
    (0..len).map(|i| mix2(seed, i as u64) & 1 == 1).collect()
}

/// Whether the unused high bits of the last word are clear.
fn tail_clear(p: &PackedBits) -> bool {
    match (p.len() % 64, p.words().last()) {
        (0, _) | (_, None) => true,
        (r, Some(w)) => w >> r == 0,
    }
}

const HOST_LANES: [usize; 6] = [1, 63, 64, 65, 130, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed host substrate behaves exactly like the per-`bool`
    /// model on random call sequences: stored and returned bits,
    /// `live_rows()`, trace entries and error variants all match, and
    /// no returned row ever carries a set tail bit.
    #[test]
    fn host_substrate_matches_bool_model(
        lanes_idx in 0usize..6,
        capacity in 2usize..24,
        calls in prop::collection::vec((0u8..9, any::<u64>()), 1..120),
    ) {
        let lanes = HOST_LANES[lanes_idx];
        let mut s = HostSubstrate::new(lanes, capacity);
        let mut m = BoolHost::new(lanes, capacity);
        // Every handle ever returned, live or freed.
        let mut handles: Vec<BitRow> = Vec::new();
        let ops = [LogicOp::And, LogicOp::Or, LogicOp::Nand, LogicOp::Nor];
        for (kind, seed) in calls {
            let pick = |k: u64| handles[(mix2(seed, k) % handles.len() as u64) as usize];
            // A write is the wrong length one time in five.
            let write_len = match seed % 5 {
                0 if seed % 2 == 0 => lanes + 1,
                0 => lanes - 1,
                _ => lanes,
            };
            let kind = if handles.is_empty() { 0 } else { kind };
            match kind {
                0 => {
                    let got = s.alloc();
                    prop_assert_eq!(got.clone().map(BitRow::id), m.alloc());
                    if let Ok(r) = got {
                        if !handles.contains(&r) {
                            handles.push(r);
                        }
                    }
                }
                1 => {
                    let r = pick(1);
                    s.free(r);
                    m.free(r.id());
                }
                2 => {
                    let r = pick(1);
                    for _ in 0..2 {
                        s.free(r);
                        m.free(r.id());
                    }
                }
                3 => {
                    let (r, bits) = (pick(1), lane_bits(seed, write_len));
                    let packed = PackedBits::from_bools(&bits);
                    prop_assert_eq!(s.write_packed(r, &packed), m.write(r.id(), &bits));
                }
                4 => {
                    let r = pick(1);
                    prop_assert_eq!(s.read_packed(r), m.read_packed(r.id()));
                }
                5 => {
                    let (r, v) = (pick(1), seed >> 32 & 1 == 1);
                    prop_assert_eq!(s.fill(r, v), m.fill(r.id(), v));
                }
                // One kind per gate.
                6 => {
                    let (a, b) = (pick(1), pick(2));
                    let got = s.copy(a, b).cloned();
                    prop_assert!(got.as_ref().map_or(true, tail_clear));
                    prop_assert_eq!(got, m.copy(a.id(), b.id()));
                }
                7 => {
                    let (a, b) = (pick(1), pick(2));
                    let got = s.not(a, b).cloned();
                    prop_assert!(got.as_ref().map_or(true, tail_clear));
                    prop_assert_eq!(got, m.not(a.id(), b.id()));
                }
                _ => {
                    let op = ops[(seed >> 8) as usize % 4];
                    let n = 1 + (seed >> 16) as usize % 17;
                    let ins: Vec<BitRow> = (0..n as u64).map(|k| pick(10 + k)).collect();
                    let ids: Vec<usize> = ins.iter().map(|r| r.id()).collect();
                    let out = pick(2);
                    let got = s.logic(op, &ins, out).cloned();
                    prop_assert!(got.as_ref().map_or(true, tail_clear));
                    prop_assert_eq!(got, m.logic(op, &ids, out.id()));
                }
            }
            prop_assert_eq!(s.live_rows(), m.live());
            prop_assert_eq!(s.trace(), &m.trace);
        }
        // Final state: every row reads back the model's bits, tail clear.
        for r in &handles {
            let got = s.read_packed(*r);
            prop_assert!(got.as_ref().map_or(true, tail_clear));
            prop_assert_eq!(got, m.read_packed(r.id()));
        }
        prop_assert_eq!(s.trace(), &m.trace);
    }
}

use dram_core::{FleetConfig, FleetSlot, FleetSlots, SlotLease};

/// The eager slot allocator: every subarray's free list materialized
/// up front. The lazy [`FleetSlots`] must lease, release and report
/// exactly as this model does.
struct EagerSlots {
    usable: Vec<usize>,
    free: Vec<Vec<Vec<(usize, usize)>>>,
}

impl EagerSlots {
    fn new(fleet: &FleetConfig, reserved_top: usize) -> EagerSlots {
        let geometry: Vec<_> = (0..fleet.len())
            .map(|i| fleet.spec(i).cfg.geometry())
            .collect();
        let usable: Vec<usize> = geometry
            .iter()
            .map(|g| g.rows_per_subarray().saturating_sub(reserved_top))
            .collect();
        let free = geometry
            .iter()
            .zip(&usable)
            .map(|(g, &u)| vec![vec![(0, u)]; g.subarrays_per_bank()])
            .collect();
        EagerSlots { usable, free }
    }

    fn lease_on(&mut self, member: usize, rows: usize) -> Option<FleetSlot> {
        for (subarray, ranges) in self.free[member].iter_mut().enumerate() {
            if let Some(i) = ranges.iter().position(|(_, len)| *len >= rows) {
                let (start, len) = ranges[i];
                if len == rows {
                    ranges.remove(i);
                } else {
                    ranges[i] = (start + rows, len - rows);
                }
                return Some(FleetSlot {
                    member,
                    subarray,
                    row_start: start,
                    rows,
                });
            }
        }
        None
    }

    fn release(&mut self, slot: FleetSlot) {
        let ranges = &mut self.free[slot.member][slot.subarray];
        let at = ranges
            .iter()
            .position(|(start, _)| *start > slot.row_start)
            .unwrap_or(ranges.len());
        ranges.insert(at, (slot.row_start, slot.rows));
        if at + 1 < ranges.len() && ranges[at].0 + ranges[at].1 == ranges[at + 1].0 {
            ranges[at].1 += ranges[at + 1].1;
            ranges.remove(at + 1);
        }
        if at > 0 && ranges[at - 1].0 + ranges[at - 1].1 == ranges[at].0 {
            ranges[at - 1].1 += ranges[at].1;
            ranges.remove(at);
        }
    }

    fn reset_member(&mut self, member: usize) {
        let usable = self.usable[member];
        for ranges in &mut self.free[member] {
            *ranges = vec![(0, usable)];
        }
    }

    fn free_rows(&self, member: usize) -> usize {
        self.free[member].iter().flatten().map(|(_, len)| len).sum()
    }

    fn largest_lease(&self, member: usize) -> usize {
        self.free[member]
            .iter()
            .flatten()
            .map(|(_, len)| *len)
            .max()
            .unwrap_or(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazily materialized per-subarray free lists lease, release,
    /// recycle and report exactly like the eager per-subarray model on
    /// random `lease_on`/`release`/`reset_member` sequences.
    #[test]
    fn lazy_fleet_slots_match_the_eager_model(
        chips in 1usize..4,
        usable in 1usize..9,
        calls in prop::collection::vec((0u8..8, any::<u64>()), 1..200),
    ) {
        let fleet = FleetConfig::table1(chips);
        let rows = fleet.spec(0).cfg.geometry().rows_per_subarray();
        let reserved_top = rows - usable;
        let mut lazy = FleetSlots::new(&fleet, reserved_top);
        let mut eager = EagerSlots::new(&fleet, reserved_top);
        // Outstanding leases, per member.
        let mut held: Vec<Vec<SlotLease>> = (0..chips).map(|_| Vec::new()).collect();
        for (kind, seed) in calls {
            let member = (seed % chips as u64) as usize;
            let want = 1 + (seed >> 8) as usize % (usable + 2);
            match kind {
                0..=3 => {
                    let got = lazy.lease_on(member, want);
                    prop_assert_eq!(got.as_ref().map(|l| l.slot), eager.lease_on(member, want));
                    held[member].extend(got);
                }
                // Lease until the member is exhausted, so the last
                // subarray and the first refusal are always reached.
                4 => loop {
                    let got = lazy.lease_on(member, want);
                    prop_assert_eq!(got.as_ref().map(|l| l.slot), eager.lease_on(member, want));
                    match got {
                        Some(lease) => held[member].push(lease),
                        None => break,
                    }
                },
                5 | 6 => {
                    if !held[member].is_empty() {
                        let i = (seed >> 16) as usize % held[member].len();
                        let lease = held[member].swap_remove(i);
                        eager.release(lease.slot);
                        lazy.release(lease);
                    }
                }
                _ => {
                    lazy.reset_member(member);
                    eager.reset_member(member);
                    held[member].clear();
                }
            }
            for m in 0..chips {
                prop_assert_eq!(lazy.free_rows(m), eager.free_rows(m));
                prop_assert_eq!(lazy.largest_lease(m), eager.largest_lease(m));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shape-first activation discovery against the row-set decoder
// ---------------------------------------------------------------------------

use bender::Bender;
use dram_core::{ActivationShape, DramModule, Geometry, ModuleConfig};
use fcdram::{ActivationMap, CoverageRow, PatternEntry};
use std::collections::BTreeMap;

/// Every module of the tested fleet (Table 1 plus the Micron parts),
/// so all three activation capabilities are covered: SK Hynix
/// simultaneous, Samsung sequential, Micron ignored.
fn fleet_modules() -> Vec<ModuleConfig> {
    dram_core::config::full_fleet()
        .into_iter()
        .map(|m| m.with_modeled_cols(16))
        .collect()
}

/// The shape [`dram_core::RowDecoder::activation`] implies: `Cross` for
/// a simultaneous cross-subarray activation, `None` for anything else.
fn shape_of(act: &MultiActivation) -> ActivationShape {
    match act {
        MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            kind,
            simultaneous: true,
        } => ActivationShape::Cross {
            n_rf: first_rows.len() as u8,
            n_rl: second_rows.len() as u8,
            kind: *kind,
        },
        _ => ActivationShape::None,
    }
}

/// An `(rf, rl)` pair anywhere in the bank, of one of five classes:
/// same subarray, neighbouring subarrays, non-neighbouring subarrays,
/// `rf == rl`, or two unconstrained rows.
fn bank_pair(geom: &Geometry, class: u8, a: u64, b: u64) -> (GlobalRow, GlobalRow) {
    let rows = geom.rows_per_subarray() as u64;
    let subs = geom.subarrays_per_bank() as u64;
    let (loc_a, loc_b) = (LocalRow((a % rows) as usize), LocalRow((b % rows) as usize));
    let (sa, sb) = match class {
        0 => (a >> 32, a >> 32),
        1 => {
            let s = (a >> 32) % (subs - 1);
            if b >> 63 == 0 {
                (s, s + 1)
            } else {
                (s + 1, s)
            }
        }
        2 => {
            let s = (a >> 32) % subs;
            let gap = 2 + (b >> 32) % (subs - 2);
            (s, (s + gap) % subs)
        }
        3 => {
            let g = GlobalRow((a % geom.rows_per_bank() as u64) as usize);
            return (g, g);
        }
        _ => {
            let bank_rows = geom.rows_per_bank() as u64;
            return (
                GlobalRow((a % bank_rows) as usize),
                GlobalRow((b % bank_rows) as usize),
            );
        }
    };
    let join = |s: u64, l| geom.join_row(SubarrayId((s % subs) as usize), l).unwrap();
    (join(sa, loc_a), join(sb, loc_b))
}

/// [`ActivationMap::discover`]'s contract, rebuilt on the row-set
/// decoder: the same pseudo-random walk, every pair resolved through
/// `activation`. Returns `(entries, shape_counts, scanned)`.
#[allow(clippy::type_complexity)]
fn reference_discover(
    chip: &Chip,
    pair: (SubarrayId, SubarrayId),
    budget: usize,
    cap: usize,
) -> (
    BTreeMap<(usize, usize), Vec<PatternEntry>>,
    BTreeMap<(usize, usize, bool), usize>,
    usize,
) {
    let geom = *chip.geometry();
    let rows = geom.rows_per_subarray();
    let total = rows * rows;
    let budget = budget.min(total).max(1);
    let mut entries: BTreeMap<(usize, usize), Vec<PatternEntry>> = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for scanned in 0..budget {
        let idx =
            (dram_core::math::mix3(0x5CA9, scanned as u64, rows as u64) % total as u64) as usize;
        let rf = geom.join_row(pair.0, LocalRow(idx / rows)).unwrap();
        let rl = geom.join_row(pair.1, LocalRow(idx % rows)).unwrap();
        if let MultiActivation::CrossSubarray {
            first_rows,
            second_rows,
            kind,
            simultaneous: true,
        } = chip.decoder().activation(&geom, rf, rl)
        {
            let shape = (first_rows.len(), second_rows.len());
            *counts
                .entry((shape.0, shape.1, kind == PatternKind::N2N))
                .or_insert(0) += 1;
            let list = entries.entry(shape).or_default();
            if list.len() < cap {
                list.push(PatternEntry {
                    rf,
                    rl,
                    first_rows,
                    second_rows,
                    kind,
                });
            }
        }
    }
    (entries, counts, budget)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `activation_shape` is exactly the shape of `activation`, on a
    /// chip of every fleet module, for pairs drawn over the whole bank.
    #[test]
    fn activation_shape_matches_activation(
        chip in 0usize..8,
        class in 0u8..5,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        for cfg in fleet_modules() {
            let id = ChipId(chip % cfg.chips);
            let name = cfg.name.clone();
            let chip = Chip::new(cfg, id);
            let geom = *chip.geometry();
            for (x, y) in [(a, b), (b, a), (mix2(a, 1), mix2(b, 2))] {
                let (rf, rl) = bank_pair(&geom, class, x, y);
                prop_assert_eq!(
                    chip.decoder().activation_shape(&geom, rf, rl),
                    shape_of(&chip.decoder().activation(&geom, rf, rl)),
                    "{} {:?} rf={} rl={}", name, id, rf.index(), rl.index()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Shape-first discovery keeps the same entries, counts the same
    /// shapes and scans the same pairs as a scan that resolves every
    /// pair's raised rows, on every fleet module.
    #[test]
    fn discover_matches_a_row_set_scan(chip in 0usize..8, upper in 0usize..62, cap in 1usize..=16) {
        for cfg in fleet_modules() {
            let id = ChipId(chip % cfg.chips);
            let subs = cfg.geometry().subarrays_per_bank();
            let pair = (SubarrayId(upper % (subs - 1)), SubarrayId(upper % (subs - 1) + 1));
            let mut bender = Bender::new(DramModule::new(cfg.clone()));
            for budget in [512usize, 16384] {
                let map =
                    ActivationMap::discover(&mut bender, id, BankId(0), pair, budget, cap).unwrap();
                let (entries, counts, scanned) =
                    reference_discover(bender.module().chip(id).unwrap(), pair, budget, cap);
                prop_assert_eq!(map.scanned(), scanned);
                prop_assert_eq!(map.shapes(), entries.keys().copied().collect::<Vec<_>>());
                for (shape, list) in &entries {
                    prop_assert_eq!(map.find(shape.0, shape.1), list.as_slice());
                }
                // `coverage()` is `shape_counts` divided by `scanned`, one
                // row per counted shape.
                let coverage: Vec<CoverageRow> = counts
                    .iter()
                    .map(|(&(n_rf, n_rl, n2n), &count)| CoverageRow {
                        n_rf,
                        n_rl,
                        kind: if n2n { PatternKind::N2N } else { PatternKind::NN },
                        coverage: count as f64 / scanned as f64,
                    })
                    .collect();
                prop_assert_eq!(map.coverage(), coverage);
            }
        }
    }
}

use fcdram::{BitVecHandle, BulkEngine, Fcdram};
use simdram::DramSubstrate;

/// The Table-1 parts the DRAM coherence property runs on: a
/// majority-capable 16-input part, a 2133 MT/s A-die, the fan-in-8
/// M-die and a Samsung part.
const COHERENCE_PARTS: [&str; 4] = [
    "hynix-4Gb-M-2666-#0",
    "hynix-4Gb-A-2133-#1",
    "hynix-8Gb-M-2666-#0",
    "samsung-4Gb-F-2666-#0",
];

/// An engine on Table-1 part `name` at 64 modeled columns (32 lanes),
/// or `None` when discovery finds no usable pattern.
fn coherence_engine(name: &str) -> Option<BulkEngine> {
    let cfg = dram_core::config::table1()
        .into_iter()
        .find(|m| m.name == name)
        .expect("a Table-1 part")
        .with_modeled_cols(64);
    BulkEngine::new(Fcdram::new(cfg), BankId(0), SubarrayId(0)).ok()
}

/// A reference gate's statistics and stored bits.
type GateResult = fcdram::Result<(fcdram::OpStats, PackedBits)>;

/// One live row of the coherence property: the substrate's handle, the
/// reference engine's handle for the same device row, and the value
/// last written to it (`None` until the first write).
struct LiveRow {
    row: BitRow,
    handle: BitVecHandle,
    value: Option<PackedBits>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `DramSubstrate` tracks what each row holds. On random sequences
    /// of alloc, free, write, fill, copy, NOT, logic and MAJ3, every
    /// live row's device read equals the value last written to it after
    /// every operation, and every gate stores the bits and reports the
    /// statistics of a reference that drives a second, identical
    /// `BulkEngine` with operand values read back from the device.
    #[test]
    fn dram_substrate_tracks_device_rows(
        part in 0usize..4,
        calls in prop::collection::vec((0u8..8, any::<u64>()), 1..40),
    ) {
        let (Some(engine), Some(mut reference)) = (
            coherence_engine(COHERENCE_PARTS[part]),
            coherence_engine(COHERENCE_PARTS[part]),
        ) else {
            return Ok(());
        };
        let mut s = DramSubstrate::new(engine);
        let lanes = s.lanes();
        let ops = [LogicOp::And, LogicOp::Or, LogicOp::Nand, LogicOp::Nor];
        let mut live: Vec<LiveRow> = Vec::new();
        for (kind, seed) in calls {
            let pick = |k: u64| (mix2(seed, k) % live.len().max(1) as u64) as usize;
            let kind = if live.len() < 4 { 0 } else { kind };
            // A gate's output row, whether the substrate ran it, and the
            // reference's result.
            let mut gate: Option<(usize, bool, GateResult)> = None;
            match kind {
                0 => {
                    let got = s.alloc();
                    let want = reference.alloc();
                    prop_assert_eq!(got.is_ok(), want.is_ok());
                    if let (Ok(row), Ok(handle)) = (got, want) {
                        live.push(LiveRow { row, handle, value: None });
                    }
                }
                1 => {
                    let r = live.swap_remove(pick(1));
                    s.free(r.row);
                    reference.free(r.handle);
                }
                2 => {
                    let (i, bits) = (pick(1), PackedBits::seeded(seed, 7, lanes));
                    s.write_packed(live[i].row, &bits).unwrap();
                    reference.write_packed(&live[i].handle, &bits).unwrap();
                    live[i].value = Some(bits);
                }
                3 => {
                    let (i, v) = (pick(1), seed >> 32 & 1 == 1);
                    s.fill(live[i].row, v).unwrap();
                    reference.fill(&live[i].handle, v).unwrap();
                    live[i].value = Some(PackedBits::splat(v, lanes));
                }
                4 => {
                    let (a, out) = (pick(1), pick(2));
                    let val = reference.read_packed(&live[a].handle).unwrap();
                    let want = reference.copy(&live[a].handle, &val, &live[out].handle);
                    let got = s.copy(live[a].row, live[out].row).cloned();
                    prop_assert_eq!(got.as_ref().ok(), want.as_ref().ok().map(|w| &w.1));
                    gate = Some((out, got.is_ok(), want));
                }
                5 => {
                    let (a, out) = (pick(1), pick(2));
                    let val = reference.read_packed(&live[a].handle).unwrap();
                    let want = reference.not(&val, &live[out].handle);
                    let got = s.not(live[a].row, live[out].row).cloned();
                    prop_assert_eq!(got.as_ref().ok(), want.as_ref().ok().map(|w| &w.1));
                    gate = Some((out, got.is_ok(), want));
                }
                6 => {
                    let op = ops[(seed >> 8) as usize % 4];
                    let n = 2 + (seed >> 16) as usize % 3;
                    let ins: Vec<usize> = (0..n as u64).map(|k| pick(10 + k)).collect();
                    let out = pick(2);
                    let vals: Vec<PackedBits> = ins
                        .iter()
                        .map(|i| reference.read_packed(&live[*i].handle).unwrap())
                        .collect();
                    let refs: Vec<&PackedBits> = vals.iter().collect();
                    let want = reference.logic(op, &refs, &live[out].handle);
                    let rows: Vec<BitRow> = ins.iter().map(|i| live[*i].row).collect();
                    let got = s.logic(op, &rows, live[out].row).cloned();
                    prop_assert_eq!(got.as_ref().ok(), want.as_ref().ok().map(|w| &w.1));
                    gate = Some((out, got.is_ok(), want));
                }
                _ => {
                    if !s.has_native_maj() {
                        continue;
                    }
                    let (a, b, c, out) = (pick(1), pick(2), pick(3), pick(4));
                    let [va, vb, vc] = [a, b, c]
                        .map(|i| reference.read_packed(&live[i].handle).unwrap());
                    let want = reference.maj3(&va, &vb, &vc, &live[out].handle);
                    // Its stored bits are checked by the coherence pass.
                    let ran = s.maj3(live[a].row, live[b].row, live[c].row, live[out].row);
                    gate = Some((out, ran.is_ok(), want));
                }
            }
            if let Some((out, ran, want)) = gate {
                prop_assert_eq!(ran, want.is_ok());
                if let Ok((stats, bits)) = want {
                    let entry = *s.trace().entries().last().unwrap();
                    prop_assert_eq!(entry.executions, stats.executions);
                    let p = stats.predicted_success;
                    prop_assert_eq!(entry.predicted_success.to_bits(), p.to_bits());
                    live[out].value = Some(bits);
                }
            }
            // Coherence: every live row reads back what was last
            // written to it, on both the substrate and the reference.
            for r in &live {
                let got = s.read_packed(r.row).unwrap();
                prop_assert_eq!(&got, &reference.read_packed(&r.handle).unwrap());
                if let Some(v) = &r.value {
                    prop_assert_eq!(&got, v);
                }
            }
        }
    }
}
