//! Fault-injection equivalence properties: *degradation never changes
//! answers, and its bookkeeping never changes with the serving
//! configuration*.
//!
//! * disturbance counters, mitigation schedules, and dropout timelines
//!   (the [`fcsched::FleetHealth`] ledger) are **byte-identical across
//!   shard counts and across the vm/bender backends** — the planner
//!   derives them from `(fleet, batch, policy)` alone;
//! * the ledger is **seed-sensitive**: reseeding the `FaultPlan`
//!   redraws every member's hazard lifetime;
//! * chip-level disturbance charging is **bit-identical across
//!   fast/full simulation fidelity** — counters are pure integer
//!   bookkeeping, independent of how much telemetry the analog model
//!   keeps;
//! * a scripted mid-session dropout re-places its in-flight jobs
//!   deterministically and every re-placed job still returns
//!   host-exact bits.

mod common;

use common::random_expr;
use dram_core::{AgingPolicy, BankId, FaultPlan, GlobalRow, PlannedDropout, Telemetry};
use fcdram::PackedBits;
use fcsched::{serve_batch, Batch, SchedPolicy};
use fcsynth::CostModel;
use proptest::prelude::*;
use simdram::{HostSubstrate, SimdVm};

/// Builds a batch of `jobs` random jobs (≤6 inputs each) with
/// deterministic operands, plus each job's direct host reference.
fn random_batch(jobs: usize, lanes: usize, seed: u64) -> (Batch, Vec<PackedBits>) {
    let cost = CostModel::table1_defaults();
    let mut batch = Batch::new(seed);
    let mut references = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let n = 1 + (seed as usize ^ (j * 5)) % 6;
        let text = random_expr(n, seed ^ (j as u64) << 13, 8);
        let compiled = fcsynth::compile(&text, &cost, 16).expect("generated exprs parse");
        let k = compiled.circuit.inputs().len();
        let operands: Vec<PackedBits> = (0..k)
            .map(|i| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    let h = dram_core::math::mix4(seed, j as u64, i as u64, l as u64);
                    p.set(l, h & 1 == 1);
                }
                p
            })
            .collect();
        let mut vm = SimdVm::new(HostSubstrate::new(
            lanes,
            compiled.mapping.program.n_regs + k + 8,
        ))
        .expect("vm");
        references.push(
            common::execute(&mut vm, &compiled.mapping.program, &operands)
                .expect("reference executes"),
        );
        batch
            .push(&text, &compiled.mapping, operands, lanes)
            .expect("job validates");
    }
    (batch, references)
}

/// Builds a batch cycling fixed non-foldable expressions, so every job
/// carries real activation work (random expressions can constant-fold
/// to zero-step programs, which never load a chip).
fn mix_batch(jobs: usize, lanes: usize, seed: u64) -> (Batch, Vec<PackedBits>) {
    const MIX: [&str; 5] = [
        "a & b",
        "a ^ b ^ c",
        "(a & b) | (c & d)",
        "!(a | b | c | d)",
        "a&b&c&d&e&f&g&h",
    ];
    let cost = CostModel::table1_defaults();
    let mut batch = Batch::new(seed);
    let mut references = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let text = MIX[j % MIX.len()];
        let compiled = fcsynth::compile(text, &cost, 16).expect("mix exprs parse");
        let k = compiled.circuit.inputs().len();
        let operands: Vec<PackedBits> = (0..k)
            .map(|i| {
                let mut p = PackedBits::zeros(lanes);
                for l in 0..lanes {
                    let h = dram_core::math::mix4(seed, j as u64, i as u64, l as u64);
                    p.set(l, h & 1 == 1);
                }
                p
            })
            .collect();
        let mut vm = SimdVm::new(HostSubstrate::new(
            lanes,
            compiled.mapping.program.n_regs + k + 8,
        ))
        .expect("vm");
        references.push(
            common::execute(&mut vm, &compiled.mapping.program, &operands)
                .expect("reference executes"),
        );
        batch
            .push(text, &compiled.mapping, operands, lanes)
            .expect("job validates");
    }
    (batch, references)
}

/// A degradation scenario aggressive enough to exercise mitigation on
/// small batches, with one scripted mid-session dropout.
fn scenario(seed: u64, dropout_member: usize, after_ns: f64) -> FaultPlan {
    FaultPlan {
        seed,
        dropouts: vec![PlannedDropout {
            member: dropout_member,
            after_ns,
        }],
        ..FaultPlan::demo()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fleet-health ledger — disturbance totals, mitigation
    /// counts, dropout timeline — is byte-identical across shard
    /// counts AND across the vm/bender backends; the full report is
    /// byte-identical across shard counts on each backend.
    #[test]
    fn health_is_shard_and_backend_invariant(
        jobs in 4usize..=10,
        chips in 2usize..=4,
        shards in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let (batch, _) = random_batch(jobs, 33, seed);
        let cost = CostModel::table1_defaults();
        let fleet = dram_core::FleetConfig::table1(chips);
        let faults = scenario(seed, seed as usize % chips, 800.0);
        let run = |shards: usize, backend: fcexec::BackendKind| {
            serve_batch(
                &fleet,
                &cost,
                &SchedPolicy {
                    faults: Some(faults.clone()),
                    shards,
                    backend,
                    ..SchedPolicy::default()
                },
                &batch,
            ).map_err(|e| e.to_string())
        };
        let vm1 = run(1, fcexec::BackendKind::Vm)?;
        let vmk = run(shards, fcexec::BackendKind::Vm)?;
        let b1 = run(1, fcexec::BackendKind::Bender)?;
        let bk = run(shards, fcexec::BackendKind::Bender)?;
        prop_assert_eq!(
            vm1.to_json(), vmk.to_json(),
            "vm faulted report not byte-identical across shard counts"
        );
        prop_assert_eq!(
            b1.to_json(), bk.to_json(),
            "bender faulted report not byte-identical across shard counts"
        );
        let health = vm1.health.as_ref().expect("fault plan yields health");
        let h_json = health.to_json();
        prop_assert_eq!(&h_json, &vmk.health.as_ref().unwrap().to_json());
        prop_assert_eq!(&h_json, &b1.health.as_ref().unwrap().to_json(),
            "health ledger differs between backends");
        prop_assert_eq!(&h_json, &bk.health.as_ref().unwrap().to_json());
        // Random expressions can constant-fold to zero-step programs;
        // only a batch with native work must charge the ledger.
        prop_assert!(
            batch.native_ops() == 0 || health.total_disturbance() > 0,
            "activations were charged"
        );
    }

    /// Reseeding the fault plan redraws hazard lifetimes: the ledger
    /// moves, while every job's result bits stay host-exact.
    #[test]
    fn health_is_seed_sensitive_and_results_are_not(
        jobs in 4usize..=8,
        seed in any::<u64>(),
    ) {
        let (batch, references) = random_batch(jobs, 17, seed);
        let cost = CostModel::table1_defaults();
        let fleet = dram_core::FleetConfig::table1(3);
        let run = |fault_seed: u64| {
            serve_batch(
                &fleet,
                &cost,
                &SchedPolicy {
                    faults: Some(FaultPlan {
                        seed: fault_seed,
                        dropouts: Vec::new(),
                        ..FaultPlan::demo()
                    }),
                    shards: 1,
                    ..SchedPolicy::default()
                },
                &batch,
            ).map_err(|e| e.to_string())
        };
        let a = run(seed)?;
        let b = run(seed ^ 0x5EED)?;
        let fa: Vec<Option<f64>> =
            a.health.as_ref().unwrap().members.iter().map(|m| m.fail_at_ns).collect();
        let fb: Vec<Option<f64>> =
            b.health.as_ref().unwrap().members.iter().map(|m| m.fail_at_ns).collect();
        // Shim `prop_assert_ne!` takes no message: the assertion text
        // is the property's doc comment above.
        prop_assert_ne!(fa, fb);
        for (j, reference) in references.iter().enumerate() {
            prop_assert_eq!(&a.outcomes[j].result, reference,
                "fault seed changed job {}'s bits", j);
            prop_assert_eq!(&b.outcomes[j].result, reference);
        }
    }

    /// Chip-level disturbance charging is pure integer bookkeeping:
    /// the same operation sequence leaves bit-identical counters in
    /// fast and full simulation fidelity.
    #[test]
    fn disturbance_counters_are_fidelity_invariant(
        seed in any::<u64>(),
        ops in 1usize..=12,
    ) {
        let cfg = dram_core::config::table1().remove(0).with_modeled_cols(32);
        let mut fast = dram_core::Chip::new(cfg.clone(), dram_core::ChipId(0));
        let mut full = dram_core::Chip::new(cfg, dram_core::ChipId(0));
        fast.configure(dram_core::SimConfig::new().with_telemetry(Telemetry::Fast));
        full.configure(dram_core::SimConfig::new().with_telemetry(Telemetry::Full));
        for chip in [&mut fast, &mut full] {
            for i in 0..ops {
                let h = dram_core::math::mix2(seed, i as u64);
                let rf = GlobalRow((h % 512) as usize);
                let rl = GlobalRow(512 + ((h >> 10) % 512) as usize);
                match h % 3 {
                    0 => {
                        let _ = chip.activate(BankId(0), rf);
                        let _ = chip.precharge(BankId(0));
                    }
                    1 => {
                        let _ = chip.multi_act_copy(BankId(0), rf, rl);
                        let _ = chip.precharge(BankId(0));
                    }
                    _ => {
                        let _ = chip.multi_act_charge_share(BankId(0), rf, rl);
                        let _ = chip.precharge(BankId(0));
                    }
                }
            }
        }
        prop_assert_eq!(fast.disturbance(), full.disturbance(),
            "fidelity changed the disturbance ledger");
        prop_assert!(fast.disturbance().lifetime_total() >= ops as u64);
    }
}

/// A scripted mid-session dropout: the dead member's in-flight jobs
/// are re-placed onto survivors, budgets respected, results host-exact
/// — and the whole outcome (ledger included) is identical across shard
/// counts.
#[test]
fn scripted_dropout_replaces_in_flight_jobs_host_exactly() {
    let (batch, references) = mix_batch(16, 33, 0xD20);
    let cost = CostModel::table1_defaults();
    let fleet = dram_core::FleetConfig::table1(3);
    // Script-only plan: hazard off, so member 1's death at 600 ns is
    // the only fault event and the test controls it exactly.
    let faults = FaultPlan {
        aging: AgingPolicy {
            acceleration: 0.0,
            ..AgingPolicy::default()
        },
        dropouts: vec![PlannedDropout {
            member: 1,
            after_ns: 600.0,
        }],
        ..FaultPlan::demo()
    };
    let run = |shards: usize| {
        serve_batch(
            &fleet,
            &cost,
            &SchedPolicy {
                faults: Some(faults.clone()),
                shards,
                ..SchedPolicy::default()
            },
            &batch,
        )
        .expect("faulted serve")
    };
    let serial = run(1);
    let sharded = run(5);
    assert_eq!(serial.to_json(), sharded.to_json());
    let health = serial.health.as_ref().unwrap();
    assert_eq!(health.dropouts.len(), 1, "{:?}", health.dropouts);
    assert_eq!(health.dropouts[0].member, 1);
    assert_eq!(health.dropouts[0].at_ns, 600.0);
    assert!(health.dropouts[0].replaced >= 1, "a job was in flight");
    assert_eq!(health.replaced_jobs, health.dropouts[0].replaced);
    let replaced: Vec<_> = serial
        .outcomes
        .iter()
        .filter(|o| o.replacements > 0)
        .collect();
    assert_eq!(replaced.len(), health.replaced_jobs);
    for o in &replaced {
        assert_ne!(o.member, 1, "re-placed jobs land on survivors");
        assert!(
            o.retries <= SchedPolicy::default().retry_budget,
            "budget respected across re-placements"
        );
    }
    for (j, reference) in references.iter().enumerate() {
        assert_eq!(
            &serial.outcomes[j].result, reference,
            "job {j} lost host-exactness under the dropout"
        );
    }
}
