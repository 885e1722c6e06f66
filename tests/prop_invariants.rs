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
        let hex = bender::asm::bits_to_hex(&padded);
        prop_assert_eq!(bender::asm::hex_to_bits(&hex).unwrap(), padded);
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
        for cell in &out.cells {
            prop_assert!((0.0..=1.0).contains(&cell.p_success));
            if cell.role == dram_core::CellRole::NotDst {
                prop_assert_eq!(cell.intended, src[cell.col.index()].not());
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
/// successful call (the value-path calls add their read-back).
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

    fn store(&mut self, id: usize, bits: Vec<bool>, op: NativeOp) -> ModelResult<()> {
        self.row(id)?;
        self.rows[id] = Some(bits);
        self.record(op);
        Ok(())
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
        self.store(id, bits.to_vec(), NativeOp::HostWrite)
    }

    fn read(&mut self, id: usize) -> ModelResult<Vec<bool>> {
        let bits = self.row(id)?;
        self.record(NativeOp::HostRead);
        Ok(bits)
    }

    fn read_packed(&mut self, id: usize) -> ModelResult<PackedBits> {
        Ok(PackedBits::from_bools(&self.read(id)?))
    }

    fn fill(&mut self, id: usize, value: bool) -> ModelResult<()> {
        self.store(id, vec![value; self.lanes], NativeOp::Fill)
    }

    fn copy(&mut self, src: usize, dst: usize) -> ModelResult<()> {
        let bits = self.row(src)?;
        self.store(dst, bits, NativeOp::Copy)
    }

    fn not(&mut self, a: usize, out: usize) -> ModelResult<()> {
        let bits = self.row(a)?.iter().map(|b| !b).collect();
        self.store(out, bits, NativeOp::Not)
    }

    fn logic(&mut self, op: LogicOp, ins: &[usize], out: usize) -> ModelResult<()> {
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
        calls in prop::collection::vec((0u8..14, any::<u64>()), 1..120),
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
                    prop_assert_eq!(s.write(r, &bits), m.write(r.id(), &bits));
                }
                4 => {
                    let (r, bits) = (pick(1), lane_bits(seed, write_len));
                    let packed = PackedBits::from_bools(&bits);
                    prop_assert_eq!(s.write_packed(r, &packed), m.write(r.id(), &bits));
                }
                5 => {
                    let r = pick(1);
                    prop_assert_eq!(s.read(r), m.read(r.id()));
                }
                6 => {
                    let r = pick(1);
                    prop_assert_eq!(s.read_packed(r), m.read_packed(r.id()));
                }
                7 => {
                    let (r, v) = (pick(1), seed >> 32 & 1 == 1);
                    prop_assert_eq!(s.fill(r, v), m.fill(r.id(), v));
                }
                8 => {
                    let (a, b) = (pick(1), pick(2));
                    prop_assert_eq!(s.copy(a, b), m.copy(a.id(), b.id()));
                }
                9 => {
                    let (a, b) = (pick(1), pick(2));
                    prop_assert_eq!(s.not(a, b), m.not(a.id(), b.id()));
                }
                10 | 12 => {
                    let op = ops[(seed >> 8) as usize % 4];
                    let n = 1 + (seed >> 16) as usize % 17;
                    let ins: Vec<BitRow> = (0..n as u64).map(|k| pick(10 + k)).collect();
                    let ids: Vec<usize> = ins.iter().map(|r| r.id()).collect();
                    let out = pick(2);
                    let want = m.logic(op, &ids, out.id());
                    if kind == 10 {
                        prop_assert_eq!(s.logic(op, &ins, out), want);
                    } else {
                        let want = want.and_then(|()| m.read_packed(out.id()));
                        let vals: Vec<PackedBits> = ins.iter().map(|r| current(&m, *r)).collect();
                        let refs: Vec<&PackedBits> = vals.iter().collect();
                        let got = s.logic_known(op, &ins, &refs, out);
                        prop_assert!(got.as_ref().map_or(true, tail_clear));
                        prop_assert_eq!(got, want);
                    }
                }
                11 => {
                    let (a, b) = (pick(1), pick(2));
                    let val = current(&m, a);
                    let want = m.not(a.id(), b.id()).and_then(|()| m.read_packed(b.id()));
                    let got = s.not_known(a, &val, b);
                    prop_assert!(got.as_ref().map_or(true, tail_clear));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let (a, b) = (pick(1), pick(2));
                    let val = current(&m, a);
                    let want = m.copy(a.id(), b.id()).and_then(|()| m.read_packed(b.id()));
                    let got = s.copy_known(a, &val, b);
                    prop_assert!(got.as_ref().map_or(true, tail_clear));
                    prop_assert_eq!(got, want);
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

/// The model's current value of `r` (zeros for a freed row), as a
/// value-path caller would track it.
fn current(m: &BoolHost, r: BitRow) -> PackedBits {
    m.row(r.id()).map_or_else(
        |_| PackedBits::zeros(m.lanes),
        |b| PackedBits::from_bools(&b),
    )
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
