//! The planner: fleet placement and reliability-aware admission.
//!
//! Planning is a pure function of `(fleet, batch, policy)` — no clock,
//! no thread count — so a plan is bit-identical however the executor
//! later shards it. Three decisions are made per job, in submission
//! order:
//!
//! 1. **placement** — the job goes to the least-loaded chip (by
//!    predicted scheduled latency, ties to the lowest member index)
//!    *that can hold it* — members whose subarrays could never fit
//!    the job even when idle are skipped — and leases a
//!    `(subarray, row-range)` slot sized to the program's peak
//!    live-row footprint from [`dram_core::FleetSlots`]. When a
//!    chip's subarrays fill up, the chip rolls into its next *wave*:
//!    all of its slots are recycled and sequential reuse begins — the
//!    wave index is recorded so utilization reports stay honest.
//! 2. **re-pricing** — the submitted program is priced under the
//!    *assigned chip's* [`CostModel`] (see [`ChipProfile`]): the
//!    paper's chip-to-chip variation means a mapping optimal for the
//!    population mean may be too optimistic for a weak chip.
//! 3. **admission** — jobs whose expected success on their chip falls
//!    below the policy threshold are re-mapped to narrower native
//!    gates ([`fcsynth::SynthProgram::narrowed`]); if no narrowing
//!    reaches the threshold, the best variant runs anyway and the job
//!    is flagged in its outcome.

use crate::error::{Result, SchedError};
use crate::health::{Dropout, FleetHealth, HealthEvent, MemberHealth};
use crate::queue::{Batch, Job, JobId};
use dram_core::fault::{hazard_rate, step_activations, DisturbanceState, FaultPlan};
use dram_core::fleet::{ChipSpec, FleetConfig, FleetSlot, FleetSlots, SlotLease};
use dram_core::math::{hash_to_unit, mix2};
use dram_core::Temperature;
use fcsynth::{CostModel, ProgramCost, SynthProgram};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Scheduling policy knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedPolicy {
    /// Admission threshold: jobs predicted below this success
    /// probability on their assigned chip are re-mapped or flagged.
    pub min_success: f64,
    /// Extra per-job attempts the executor may spend re-running
    /// failed operations.
    pub retry_budget: u32,
    /// Whether below-threshold jobs may be re-mapped to narrower
    /// native gates (`false`: they are only flagged).
    pub allow_remap: bool,
    /// Worker threads the executor shards jobs over. `0` = one per
    /// available CPU; `1` = serial.
    pub shards: usize,
    /// Rows reserved at the top of every subarray for reference and
    /// constant scratch (the command sequences' working set).
    pub scratch_rows: usize,
    /// Which execution backend jobs run on: the cost-model-priced VM
    /// ([`fcexec::BackendKind::Vm`], the default) or command-schedule
    /// fidelity with cycle-accurate per-step latency at each chip's
    /// speed bin ([`fcexec::BackendKind::Bender`]). Functional results
    /// are identical on every backend.
    pub backend: fcexec::BackendKind,
    /// Optional fault-injection scenario. When set, the planner runs
    /// the fleet through read-disturbance accumulation (mitigation
    /// stealing lease bandwidth), hazard-rate wear derating with
    /// reliability-aware diversion, and deterministic chip dropouts
    /// with in-flight job re-placement; the resulting
    /// [`FleetHealth`] rides on the plan and the batch report.
    pub faults: Option<FaultPlan>,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy {
            min_success: 0.85,
            retry_budget: 3,
            allow_remap: true,
            shards: 0,
            scratch_rows: simdram::MAX_FAN_IN,
            backend: fcexec::BackendKind::Vm,
            faults: None,
        }
    }
}

impl SchedPolicy {
    /// Overrides the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> SchedPolicy {
        self.shards = shards;
        self
    }

    /// The worker threads the executor spawns for `jobs` jobs
    /// ([`dram_core::shard::effective_workers`]).
    pub fn effective_workers(&self, jobs: usize) -> usize {
        dram_core::shard::effective_workers(self.shards, jobs)
    }
}

/// One chip's scheduling view: its identity plus the per-chip derated
/// [`CostModel`] admission prices against.
///
/// The derating models the paper's chip-to-chip reliability spread at
/// scheduling granularity: every chip draws a *strain* factor
/// deterministically from its seed, and a logic entry's success rate
/// is raised to the power `1 + strain·(N−1)/15` — weak chips lose
/// disproportionately on many-row activations (the §6.2 scaling), so
/// narrowing a wide gate is a genuine remedy, while NOT (one
/// destination row here) keeps its population rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipProfile {
    /// Fleet member index.
    pub member: usize,
    /// Fleet display label (`module/cN`).
    pub label: String,
    /// The chip's deterministic seed (retry draws mix it in).
    pub chip_seed: u64,
    /// Strain factor in `[0, 3)`: 0 = population-mean chip.
    pub strain: f64,
    /// The part's speed bin (command-schedule latency is cycle-timed
    /// against it when serving on the bender backend).
    pub speed: dram_core::SpeedBin,
    /// The derated per-chip cost model ([`CostModel::derated`]: it
    /// shares the base model's document).
    pub cost: CostModel,
}

impl ChipProfile {
    /// Derives the profile of fleet member `member` from its spec and
    /// the fleet-level base model. The derated model is
    /// [`CostModel::derated`] from `base`'s resolved table: no document
    /// is copied or re-resolved, and the profile's
    /// [`cost.data()`](CostModel::data) is `base`'s own document.
    pub fn derive(member: usize, spec: &ChipSpec, base: &CostModel) -> ChipProfile {
        let chip_seed = spec.seed();
        // Squared unit draw: most chips near the population mean, a
        // thin tail of weak ones — the shape of the paper's per-chip
        // distributions.
        let strain = 3.0 * hash_to_unit(mix2(chip_seed, 0x57A1)).powi(2);
        ChipProfile {
            member,
            label: spec.label(),
            chip_seed,
            strain,
            speed: spec.cfg.speed,
            cost: base.derated(|inputs| 1.0 + strain * (inputs - 1) as f64 / 15.0),
        }
    }
}

/// How admission control handled a job.
///
/// Stays `pub` although no other crate names it: it is the type of
/// [`Assignment::admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Admitted as submitted.
    Admitted,
    /// Re-mapped to native gates of at most this width to clear the
    /// admission threshold on the assigned chip.
    Remapped(usize),
    /// Below the threshold even after the best re-mapping; executed
    /// with the warning recorded.
    Flagged,
}

impl std::fmt::Display for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admission::Admitted => write!(f, "admitted"),
            Admission::Remapped(w) => write!(f, "remapped:{w}"),
            Admission::Flagged => write!(f, "flagged"),
        }
    }
}

/// One job's planned placement and the program that will actually run.
///
/// Stays `pub` although no other crate names it: it is the element type
/// of [`Plan::assignments`].
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The job (submission index).
    pub job: JobId,
    /// Assigned fleet member.
    pub member: usize,
    /// Leased rows on that member.
    pub slot: FleetSlot,
    /// The member's wave (sequential slot-reuse generation) this job
    /// runs in.
    pub wave: usize,
    /// Admission outcome.
    pub admission: Admission,
    /// The program to execute (narrowed when `admission` is
    /// [`Admission::Remapped`], or the best attempt when flagged):
    /// the job's own program when it runs as submitted, otherwise the
    /// admission memo's shared narrowed variant — never a copy.
    pub program: Arc<SynthProgram>,
    /// Predicted cost under the assigned chip's model.
    pub predicted: ProgramCost,
    /// Fault-model success derating: per-step success probabilities
    /// are raised to this exponent at execution time (`1.0` when no
    /// fault plan is active — a bit-exact no-op).
    pub success_exp: f64,
    /// Times this job was re-placed off a dying chip (each one costs
    /// a unit of the retry budget).
    pub replacements: u32,
    /// Modeled nanoseconds already burned on chips that died mid-job;
    /// charged to the job's executed latency.
    pub wasted_ns: f64,
    /// Modeled start of the job on its member's load clock,
    /// nanoseconds — the trace layer's span anchor. A pure planning
    /// quantity (cost-model load, never backend latency), so traces
    /// built from it stay backend-invariant.
    pub start_ns: f64,
}

/// A complete batch plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Per-job assignments, in submission order.
    pub assignments: Vec<Assignment>,
    /// Per-member chip profiles, in fleet order (shared with the
    /// planner that made the plan: they depend on the fleet alone).
    pub profiles: Arc<[ChipProfile]>,
    /// Total waves across the fleet (max per-member wave + 1).
    pub waves: usize,
    /// Fleet-health ledger of the session (fault plans only).
    pub health: Option<FleetHealth>,
}

/// One admission decision: the chosen variant (an index into
/// [`AdmissionEntry::narrowed`], `None` for the submitted program),
/// the outcome and the predicted cost.
type Decision = (Option<usize>, Admission, ProgramCost);

/// The memoized admission decisions of one distinct submitted program.
#[derive(Debug, Clone)]
struct AdmissionEntry {
    submitted: Arc<SynthProgram>,
    /// The submitted program's row footprint
    /// ([`SynthProgram::peak_live_rows`]), read by every placement.
    rows: usize,
    /// The narrowed variants in trial order, widths that would rewrite
    /// nothing left out. They do not depend on the chip, so they are
    /// built once, when a decision first needs them, and every
    /// assignment that runs one shares it.
    narrowed: Option<Vec<Variant>>,
    /// One slot per fleet member.
    decisions: Vec<Option<Decision>>,
}

/// A narrowed variant of a submitted program.
#[derive(Debug, Clone)]
struct Variant {
    /// The native-gate width it was narrowed to.
    width: usize,
    program: Arc<SynthProgram>,
    /// Its row footprint ([`SynthProgram::peak_live_rows`]).
    rows: usize,
}

impl AdmissionEntry {
    /// Narrowed variant `i` of a decision.
    fn variant(&self, i: usize) -> &Variant {
        &self
            .narrowed
            .as_ref()
            .expect("a narrowed decision built the variants")[i]
    }

    /// The row footprint a decision's variant runs with (`None`: the
    /// submitted program's).
    fn rows(&self, variant: Option<usize>) -> usize {
        variant.map_or(self.rows, |i| self.variant(i).rows)
    }
}

/// Memoized admission decisions, one entry per distinct submitted
/// program.
type AdmissionMemo = Vec<AdmissionEntry>;

/// The planner.
///
/// Everything that depends on the fleet, the base model and the policy
/// alone is derived once, in [`Planner::new`], and reused by every
/// [`Planner::plan`] call: the chip profiles, the idle slot pool and
/// the admission memo. Admission is a pure function of (program,
/// profile, policy), so a memo hit is exactly the decision a fresh
/// planner would make; a serving session keeps one planner for its
/// whole life, and the memo grows with its distinct programs.
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    fleet: &'a FleetConfig,
    policy: SchedPolicy,
    profiles: Arc<[ChipProfile]>,
    /// The idle slot pool every plan starts from.
    slots: FleetSlots,
    /// Each member's largest-ever lease (an idle subarray's usable
    /// rows): the fit ceiling candidate selection screens against.
    capacity: Vec<usize>,
    memo: AdmissionMemo,
}

impl<'a> Planner<'a> {
    /// A planner over `fleet` pricing against `base` (population-level
    /// cost model; each chip derates its own copy).
    pub fn new(fleet: &'a FleetConfig, base: &CostModel, policy: &SchedPolicy) -> Planner<'a> {
        let profiles: Arc<[ChipProfile]> = fleet
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| ChipProfile::derive(i, spec, base))
            .collect();
        let slots = FleetSlots::new(fleet, policy.scratch_rows);
        let capacity = (0..profiles.len())
            .map(|m| slots.largest_lease(m))
            .collect();
        Planner {
            fleet,
            policy: policy.clone(),
            profiles,
            slots,
            capacity,
            memo: Vec::new(),
        }
    }

    /// Plans a batch.
    ///
    /// # Errors
    ///
    /// Fails on an empty fleet, a job too large for *every* chip of
    /// the fleet, or — under a fault plan — a fleet whose every member
    /// has dropped out.
    pub fn plan(&mut self, batch: &Batch) -> Result<Plan> {
        if self.fleet.is_empty() {
            return Err(SchedError::EmptyFleet);
        }
        // Fault bookkeeping is seeded entirely from the plan and the
        // chip identities — nothing backend- or shard-dependent — so a
        // degradation scenario's health ledger is byte-identical on
        // every serving configuration.
        let faults = self.policy.faults.as_ref().map(|plan| {
            let specs = self.fleet.specs();
            FaultCtx {
                hazard: specs
                    .iter()
                    .map(|s| hazard_rate(s.cfg.density, Temperature::BASELINE, &plan.aging))
                    .collect(),
                fail_at: specs
                    .iter()
                    .enumerate()
                    .map(|(m, s)| {
                        plan.fail_at_ns(m, s.seed(), s.cfg.density, Temperature::BASELINE)
                    })
                    .collect(),
                disturb: specs
                    .iter()
                    .map(|s| DisturbanceState::new(s.cfg.geometry().subarrays_per_bank()))
                    .collect(),
                mitigation_ns: vec![0.0; specs.len()],
                diverted: vec![0; specs.len()],
                dead: vec![false; specs.len()],
                dropouts: Vec::new(),
                replaced_jobs: 0,
                timeline: Vec::new(),
                plan: plan.clone(),
            }
        });
        let n = batch.len();
        let members = self.profiles.len();
        let mut ctx = PlanCtx {
            policy: &self.policy,
            profiles: &self.profiles,
            capacity: &self.capacity,
            memo: &mut self.memo,
            slots: self.slots.clone(),
            load: vec![0.0f64; members],
            wave: vec![0usize; members],
            faults,
            assignments: (0..n).map(|_| None).collect(),
            intervals: vec![None; n],
        };
        for idx in 0..n {
            ctx.place(batch.jobs(), idx, 0, 0.0)?;
        }
        let health = ctx.faults.take().map(|f| {
            let mut members: Vec<MemberHealth> = ctx
                .profiles
                .iter()
                .enumerate()
                .map(|(m, p)| MemberHealth {
                    member: m,
                    chip: p.label.clone(),
                    hazard_per_mhours: f.hazard[m],
                    fail_at_ns: f.fail_at[m],
                    disturbance_acts: f.disturb[m].lifetime_total(),
                    mitigations: f.disturb[m].mitigations_total(),
                    mitigation_ns: f.mitigation_ns[m],
                    diverted: f.diverted[m],
                    dropped_at_job: None,
                    dropped_at_ns: None,
                })
                .collect();
            for d in &f.dropouts {
                members[d.member].dropped_at_job = Some(d.job);
                members[d.member].dropped_at_ns = Some(d.at_ns);
            }
            FleetHealth {
                plan_seed: f.plan.seed,
                members,
                dropouts: f.dropouts,
                replaced_jobs: f.replaced_jobs,
                timeline: f.timeline,
            }
        });
        Ok(Plan {
            waves: ctx.wave.iter().max().copied().unwrap_or(0) + 1,
            assignments: ctx
                .assignments
                .into_iter()
                .map(|a| a.expect("every job placed"))
                .collect(),
            profiles: Arc::clone(&self.profiles),
            health,
        })
    }
}

/// Looks up (or computes and caches) the admission decision for one
/// (submitted program, member) pair, returning the memo entry's index
/// with it. Entries are found by [`find_program`], so jobs compiled
/// separately from the same text share one entry and one decision.
fn admit_memoized(
    memo: &mut AdmissionMemo,
    policy: &SchedPolicy,
    job: &Job,
    member: usize,
    profiles: &[ChipProfile],
) -> (usize, Decision) {
    let pi = match find_program(memo, &job.program, |e| Some(&e.submitted)) {
        Some(i) => i,
        None => {
            memo.push(AdmissionEntry {
                submitted: Arc::clone(&job.program),
                rows: job.program.peak_live_rows(),
                narrowed: None,
                decisions: vec![None; profiles.len()],
            });
            memo.len() - 1
        }
    };
    let entry = &mut memo[pi];
    let decision = match entry.decisions[member] {
        Some(hit) => hit,
        None => {
            let decision = admit(policy, entry, &profiles[member]);
            entry.decisions[member] = Some(decision);
            decision
        }
    };
    (pi, decision)
}

/// The index of the first of `items` holding `program` — one shared
/// allocation, or on a miss the first structurally equal one — among
/// the items `key` maps to a program (`None` skips an item). The
/// pointer pass is only a fast path: every caller keeps at most one
/// structurally equal program among the items it asks about, so both
/// passes find the same item and nothing depends on which one did.
pub(crate) fn find_program<'a, T>(
    items: &'a [T],
    program: &SynthProgram,
    key: impl Fn(&'a T) -> Option<&'a SynthProgram>,
) -> Option<usize> {
    items
        .iter()
        .position(|t| key(t).is_some_and(|p| std::ptr::eq(p, program)))
        .or_else(|| items.iter().position(|t| key(t) == Some(program)))
}

/// Admission control for one (program, chip) pair.
fn admit(policy: &SchedPolicy, entry: &mut AdmissionEntry, profile: &ChipProfile) -> Decision {
    let AdmissionEntry {
        submitted,
        narrowed,
        ..
    } = entry;
    let as_is = submitted.price(&profile.cost);
    if as_is.expected_success >= policy.min_success {
        return (None, Admission::Admitted, as_is);
    }
    if !policy.allow_remap {
        return (None, Admission::Flagged, as_is);
    }
    // Try the narrowed variants; keep the best expected success (ties
    // to the wider variant — fewer ops, lower latency).
    let narrowed = narrowed.get_or_insert_with(|| {
        submitted
            .narrowed_variants()
            .map(|(width, program)| Variant {
                width,
                rows: program.peak_live_rows(),
                program: Arc::new(program),
            })
            .collect()
    });
    let mut best: Option<(usize, ProgramCost)> = None;
    for (i, v) in narrowed.iter().enumerate() {
        let c = v.program.price(&profile.cost);
        if best
            .as_ref()
            .is_none_or(|(_, b)| c.expected_success > b.expected_success + 1e-15)
        {
            best = Some((i, c));
        }
    }
    match best {
        Some((i, c)) if c.expected_success > as_is.expected_success + 1e-15 => {
            let admission = if c.expected_success >= policy.min_success {
                Admission::Remapped(narrowed[i].width)
            } else {
                Admission::Flagged
            };
            (Some(i), admission, c)
        }
        _ => (None, Admission::Flagged, as_is),
    }
}

/// Fault-scenario bookkeeping while a plan is built: one entry per
/// fleet member, all of it derived from the [`FaultPlan`] seed and the
/// chip identities.
struct FaultCtx {
    plan: FaultPlan,
    /// MIL-HDBK-217F part failure rate per member (per 10⁶ hours).
    hazard: Vec<f64>,
    /// Deterministic failure time per member, modeled nanoseconds.
    fail_at: Vec<Option<f64>>,
    /// Per-member read-disturbance counters (one zone per subarray).
    disturb: Vec<DisturbanceState>,
    /// Serving bandwidth stolen by mitigation per member.
    mitigation_ns: Vec<f64>,
    /// Placements diverted per member by wear derating.
    diverted: Vec<usize>,
    /// Members that have dropped out.
    dead: Vec<bool>,
    /// Dropout timeline, in occurrence order.
    dropouts: Vec<Dropout>,
    /// Total jobs re-placed off dying chips.
    replaced_jobs: usize,
    /// Unified fault timeline (mitigations, diversions, dropouts), in
    /// occurrence order.
    timeline: Vec<HealthEvent>,
}

/// The mutable state of one `plan()` call, factored out so dropout
/// handling can recursively re-place in-flight jobs through the same
/// candidate-selection path first placement uses.
struct PlanCtx<'p> {
    policy: &'p SchedPolicy,
    profiles: &'p [ChipProfile],
    capacity: &'p [usize],
    memo: &'p mut AdmissionMemo,
    slots: FleetSlots,
    load: Vec<f64>,
    wave: Vec<usize>,
    faults: Option<FaultCtx>,
    /// Final assignment per job index (re-placement swaps entries).
    assignments: Vec<Option<Assignment>>,
    /// `(member, start, end)` of each job's modeled residency on its
    /// chip: the in-flight test a dropout uses to pick its victims.
    intervals: Vec<Option<(usize, f64, f64)>>,
}

impl PlanCtx<'_> {
    /// Wear-derating exponent of `member` at its current served age:
    /// `1 + wear · min(age / failure time, 1)`, or `1.0` outside a
    /// fault scenario (and for members that never fail).
    fn wear_exp(&self, member: usize) -> f64 {
        let Some(f) = &self.faults else { return 1.0 };
        match f.fail_at[member] {
            Some(at) if at > 0.0 => 1.0 + f.plan.aging.wear * (self.load[member] / at).min(1.0),
            _ => 1.0,
        }
    }

    /// The live member after `prev` in candidate order — by predicted
    /// load, ties to the lowest index — or the first one when `prev` is
    /// `None`. Placement usually takes the first candidate, so the
    /// order is picked one member at a time instead of sorted per job;
    /// loads do not change while one job's candidates are tried.
    fn next_candidate(&self, prev: Option<usize>) -> Option<usize> {
        let before = |a: usize, b: usize| self.load[a].total_cmp(&self.load[b]).then(a.cmp(&b));
        (0..self.load.len())
            .filter(|&m| self.faults.as_ref().is_none_or(|f| !f.dead[m]))
            .filter(|&m| prev.is_none_or(|p| before(p, m).is_lt()))
            .min_by(|&a, &b| before(a, b))
    }

    /// Leases `rows` on `member`. A full member that fits the job when
    /// idle rolls into its next wave: all of its slots are recycled for
    /// sequential reuse. `None` when the member can never hold `rows`.
    fn lease(&mut self, member: usize, rows: usize) -> Option<SlotLease> {
        if let Some(lease) = self.slots.lease_on(member, rows) {
            return Some(lease);
        }
        if self.capacity[member] < rows {
            return None;
        }
        self.wave[member] += 1;
        self.slots.reset_member(member);
        let lease = self.slots.lease_on(member, rows);
        Some(lease.expect("an idle member at capacity fits the job"))
    }

    /// Places job `idx` (and settles its fault consequences, possibly
    /// recursively re-placing other jobs off a chip it kills).
    fn place(&mut self, jobs: &[Job], idx: usize, replacements: u32, wasted_ns: f64) -> Result<()> {
        let job = &jobs[idx];
        let policy = self.policy;
        // Candidate members by predicted load (ties to the lowest
        // index); a member whose subarrays can never hold the job —
        // even idle — is skipped rather than aborting the batch, so a
        // heterogeneous fleet places the job on a chip that fits it.
        // Dead members are out of the pool entirely.
        let Some(first) = self.next_candidate(None) else {
            return Err(SchedError::FleetExhausted {
                job: job.label.clone(),
            });
        };
        // Under a fault plan, placement runs two passes: pass 0 skips
        // members whose wear derating would push an admissible job
        // below the threshold (reliability-aware diversion); pass 1
        // accepts any live member — degraded service beats no service.
        let passes = if self.faults.is_some() { 2 } else { 1 };
        let mut placed = None;
        'passes: for pass in 0..passes {
            let mut candidate = Some(first);
            while let Some(member) = candidate {
                candidate = self.next_candidate(Some(member));
                let (pi, (variant, admission, predicted)) =
                    admit_memoized(self.memo, policy, job, member, self.profiles);
                if pass + 1 < passes {
                    let wexp = self.wear_exp(member);
                    let s = predicted.expected_success;
                    if wexp > 1.0 && s >= policy.min_success && s.powf(wexp) < policy.min_success {
                        if let Some(f) = &mut self.faults {
                            f.diverted[member] += 1;
                            f.timeline.push(HealthEvent {
                                kind: "diversion".into(),
                                member,
                                chip: self.profiles[member].label.clone(),
                                at_ns: self.load[member],
                                job: job.id,
                            });
                        }
                        continue;
                    }
                }
                // Narrowing only ever adds temporaries, so the
                // submitted program is the smallest footprint: try the
                // admitted (possibly narrowed) variant first, then
                // fall back to the submitted program when only the
                // narrowing made the job too big for this member —
                // feasibility beats the reliability re-map, and the
                // job is flagged instead.
                let (rows, submitted_rows) = (self.memo[pi].rows(variant), self.memo[pi].rows);
                if let Some(lease) = self.lease(member, rows) {
                    let program = match variant {
                        Some(i) => Arc::clone(&self.memo[pi].variant(i).program),
                        None => Arc::clone(&job.program),
                    };
                    placed = Some((member, lease, program, admission, predicted));
                    break 'passes;
                }
                if variant.is_some() {
                    if let Some(lease) = self.lease(member, submitted_rows) {
                        let predicted = job.program.price(&self.profiles[member].cost);
                        let program = Arc::clone(&job.program);
                        placed = Some((member, lease, program, Admission::Flagged, predicted));
                        break 'passes;
                    }
                }
            }
        }
        let Some((member, lease, program, admission, predicted)) = placed else {
            // Even the smallest variant (the submitted program) fits
            // no member, so the reported row count is the job's true
            // minimum footprint.
            return Err(SchedError::JobTooLarge {
                job: job.label.clone(),
                rows: job.program.peak_live_rows(),
                largest: self.capacity.iter().max().copied().unwrap_or(0),
            });
        };
        // Settle the placement: charge disturbance for the program's
        // activations to the leased subarray, derive the success
        // derating, schedule any mitigation (it steals the member's
        // serving bandwidth), then age the chip by the job.
        let wexp = self.wear_exp(member);
        let start = self.load[member];
        let mut success_exp = 1.0f64;
        let mut mitigation_steal = 0.0f64;
        if let Some(f) = &mut self.faults {
            let zone = lease.slot.subarray;
            let acts: u64 = program
                .steps
                .iter()
                .map(|s| step_activations(s.op.map(|_| s.args.len())))
                .sum();
            f.disturb[member].charge(zone, acts);
            success_exp = f.disturb[member].derate_exponent(zone, &f.plan.disturbance) * wexp;
            while f.disturb[member].needs_mitigation(zone, &f.plan.disturbance) {
                f.disturb[member].mitigate(zone, &f.plan.disturbance);
                f.timeline.push(HealthEvent {
                    kind: "mitigation".into(),
                    member,
                    chip: self.profiles[member].label.clone(),
                    at_ns: start + predicted.latency_ns + mitigation_steal,
                    job: job.id,
                });
                mitigation_steal += f.plan.disturbance.mitigation_ns;
            }
            f.mitigation_ns[member] += mitigation_steal;
        }
        self.load[member] += predicted.latency_ns;
        let end = self.load[member];
        self.load[member] += mitigation_steal;
        self.intervals[idx] = Some((member, start, end));
        self.assignments[idx] = Some(Assignment {
            job: job.id,
            member,
            slot: lease.slot,
            wave: self.wave[member],
            admission,
            program,
            predicted,
            success_exp,
            replacements,
            wasted_ns,
            start_ns: start,
        });
        // The lease stays held in `slots` (dropped here without
        // release) until the member's wave rollover recycles it.

        // Dropout: the job (or its mitigation tail) pushed the member
        // past its failure time. Jobs still resident at the moment of
        // death are re-placed deterministically, in submission order,
        // through this same placement path — which can cascade if the
        // extra load kills another chip (each dropout permanently
        // removes a member, so the cascade terminates).
        let mut dropped_at = None;
        let mut victims: Vec<usize> = Vec::new();
        if let Some(f) = &mut self.faults {
            if let Some(fa) = f.fail_at[member] {
                if !f.dead[member] && self.load[member] >= fa {
                    f.dead[member] = true;
                    victims = self
                        .intervals
                        .iter()
                        .enumerate()
                        .filter(|(_, iv)| matches!(iv, Some((m, _, e)) if *m == member && *e > fa))
                        .map(|(j, _)| j)
                        .collect();
                    f.dropouts.push(Dropout {
                        member,
                        chip: self.profiles[member].label.clone(),
                        job: job.id,
                        at_ns: fa,
                        replaced: victims.len(),
                    });
                    f.timeline.push(HealthEvent {
                        kind: "dropout".into(),
                        member,
                        chip: self.profiles[member].label.clone(),
                        at_ns: fa,
                        job: job.id,
                    });
                    f.replaced_jobs += victims.len();
                    dropped_at = Some(fa);
                }
            }
        }
        if let Some(fa) = dropped_at {
            for j in victims {
                let (_, s, _) = self.intervals[j].take().expect("victim has an interval");
                let prev = self.assignments[j].take().expect("victim was placed");
                self.place(
                    jobs,
                    j,
                    prev.replacements + 1,
                    prev.wasted_ns + (fa - s).max(0.0),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::batch_of;

    fn cost() -> CostModel {
        CostModel::table1_defaults()
    }

    #[test]
    fn plan_is_deterministic_and_spreads_load() {
        let fleet = FleetConfig::table1(4);
        let base = cost();
        let policy = SchedPolicy::default();
        let batch = batch_of(
            &["a & b", "a | b", "a ^ b", "!(a & b & c)", "a & b & c & d"],
            16,
            1,
        );
        let mut planner = Planner::new(&fleet, &base, &policy);
        let p1 = planner.plan(&batch).unwrap();
        let p2 = planner.plan(&batch).unwrap();
        assert_eq!(p1, p2, "planning is pure");
        assert_eq!(p1.assignments.len(), 5);
        let used: std::collections::BTreeSet<usize> =
            p1.assignments.iter().map(|a| a.member).collect();
        assert!(used.len() > 1, "multiple chips used: {used:?}");
        assert_eq!(p1.profiles.len(), 4);
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let fleet = FleetConfig {
            modules: vec![dram_core::config::table1().remove(0)],
            chips: 0,
            seed: 0,
        };
        let base = cost();
        let policy = SchedPolicy::default();
        let batch = batch_of(&["a & b"], 8, 0);
        assert_eq!(
            Planner::new(&fleet, &base, &policy).plan(&batch),
            Err(SchedError::EmptyFleet)
        );
    }

    #[test]
    fn chip_profiles_derate_wide_gates_more() {
        let fleet = FleetConfig::table1(8);
        let base = cost();
        for (i, spec) in fleet.specs().iter().enumerate() {
            let p = ChipProfile::derive(i, spec, &base);
            assert!((0.0..3.0).contains(&p.strain), "strain {}", p.strain);
            let n2 = p.cost.success(dram_core::LogicOp::And, 2);
            let n16 = p.cost.success(dram_core::LogicOp::And, 16);
            assert!(n2 <= base.success(dram_core::LogicOp::And, 2) + 1e-12);
            if p.strain > 0.05 {
                let base_ratio = base.success(dram_core::LogicOp::And, 16)
                    / base.success(dram_core::LogicOp::And, 2);
                assert!(
                    n16 / n2 < base_ratio + 1e-12,
                    "wide gates derate at least as much"
                );
            }
            assert_eq!(
                p.cost.not_success(),
                base.not_success(),
                "NOT keeps the population rate"
            );
        }
    }

    #[test]
    fn programs_are_shared_not_copied() {
        let fleet = FleetConfig::table1(12);
        let base = cost();
        let text = "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p";
        let m = fcsynth::compile(text, &base, 16).unwrap().mapping;
        // The same text compiled again: structurally equal, another
        // allocation.
        let twin = fcsynth::compile(text, &base, 16).unwrap().mapping;
        assert!(!Arc::ptr_eq(&m.program, &twin.program));
        let ops = |seed: u64| -> Vec<fcdram::PackedBits> {
            (0..16)
                .map(|k| fcdram::PackedBits::seeded(seed, k, 8))
                .collect()
        };
        let mut batch = crate::queue::Batch::new(5);
        for j in 0..12u64 {
            let mapping = if j == 3 { &twin } else { &m };
            batch.push(text, mapping, ops(j), 8).unwrap();
            let job = &batch.jobs()[j as usize];
            assert!(Arc::ptr_eq(&job.program, &mapping.program), "push copied");
        }
        // Admitted as submitted: every assignment runs its own job's
        // program, the twin's included, from one shared memo entry.
        let lax = SchedPolicy {
            min_success: 0.0,
            ..SchedPolicy::default()
        };
        let mut planner = Planner::new(&fleet, &base, &lax);
        let plan = planner.plan(&batch).unwrap();
        assert_eq!(planner.memo.len(), 1, "structural twins share one entry");
        for (job, asg) in batch.jobs().iter().zip(&plan.assignments) {
            assert_eq!(asg.admission, Admission::Admitted);
            assert!(Arc::ptr_eq(&asg.program, &job.program), "admission copied");
        }
        // An impossible floor flags every job; the chips where
        // narrowing helps run the memo's own narrowed variant.
        let strict = SchedPolicy {
            min_success: 1.01,
            ..SchedPolicy::default()
        };
        let mut planner = Planner::new(&fleet, &base, &strict);
        let plan = planner.plan(&batch).unwrap();
        assert_eq!(planner.memo.len(), 1);
        let narrowed = planner.memo[0].narrowed.as_ref().expect("variants built");
        // The memo holds the shared ladder's variants, and each one
        // shares the submitted program's input names.
        let ladder: Vec<_> = m.program.narrowed_variants().collect();
        assert!(
            narrowed
                .iter()
                .map(|v| (v.width, &*v.program))
                .eq(ladder.iter().map(|(width, program)| (*width, program))),
            "memo variants are not the ladder's"
        );
        for v in narrowed {
            assert!(
                Arc::ptr_eq(&v.program.inputs, &m.program.inputs),
                "inputs copied"
            );
        }
        let mut narrowed_jobs = 0;
        for (job, asg) in batch.jobs().iter().zip(&plan.assignments) {
            if asg.program == job.program {
                assert!(Arc::ptr_eq(&asg.program, &job.program), "flagging copied");
            } else {
                narrowed_jobs += 1;
                assert!(
                    narrowed
                        .iter()
                        .any(|v| Arc::ptr_eq(&v.program, &asg.program)),
                    "narrowed variant copied"
                );
            }
        }
        assert!(narrowed_jobs > 0, "some chip runs a narrowed variant");
    }

    #[test]
    fn leases_fit_footprints_and_session_plans_match_fresh_ones() {
        let fleet = FleetConfig::table1(12);
        let base = cost();
        let texts = [
            "a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p",
            "(a & b & c & d) ^ (e | f | g | h)",
        ];
        let compile = |text| fcsynth::compile(text, &base, 16).unwrap().mapping;
        let shared = texts.map(compile);
        // Submitted programs shared by pointer, with every third job a
        // twin: its text compiled again, structurally equal.
        let batch = |seed: u64| {
            let mut batch = crate::queue::Batch::new(seed);
            for j in 0..36u64 {
                let k = (j % 2) as usize;
                let twin;
                let mapping = if j % 3 == 0 {
                    twin = compile(texts[k]);
                    &twin
                } else {
                    &shared[k]
                };
                let ops = (0..mapping.program.inputs.len() as u64)
                    .map(|i| fcdram::PackedBits::seeded(seed ^ j, i, 8))
                    .collect();
                batch.push(texts[k], mapping, ops, 8).unwrap();
            }
            batch
        };
        let strict = SchedPolicy {
            min_success: 1.01,
            ..SchedPolicy::default()
        };
        let mut session = Planner::new(&fleet, &base, &strict);
        session.plan(&batch(1)).unwrap();
        let second = batch(2);
        let plan = session.plan(&second).unwrap();
        assert_eq!(
            plan,
            Planner::new(&fleet, &base, &strict).plan(&second).unwrap(),
            "a session's memo hits are a fresh planner's decisions"
        );
        assert_eq!(session.memo.len(), 2, "twins share their text's entry");
        let mut narrowed = 0;
        for (job, asg) in second.jobs().iter().zip(&plan.assignments) {
            assert_eq!(asg.slot.rows, asg.program.peak_live_rows(), "{}", job.label);
            narrowed += usize::from(asg.program != job.program);
        }
        assert!(narrowed > 0, "some job runs a narrowed variant");
    }

    #[test]
    fn strict_threshold_remaps_or_flags() {
        let fleet = FleetConfig::table1(3);
        let base = cost();
        // Impossible threshold: nothing passes; everything is flagged
        // (or remapped if narrowing somehow reached 1.01 — it cannot).
        let strict = SchedPolicy {
            min_success: 1.01,
            ..SchedPolicy::default()
        };
        let batch = batch_of(&["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p"], 8, 3);
        let plan = Planner::new(&fleet, &base, &strict).plan(&batch).unwrap();
        assert_eq!(plan.assignments[0].admission, Admission::Flagged);
        // Flagging still picks the best program for the chip.
        let no_remap = SchedPolicy {
            min_success: 1.01,
            allow_remap: false,
            ..SchedPolicy::default()
        };
        let plan2 = Planner::new(&fleet, &base, &no_remap).plan(&batch).unwrap();
        assert_eq!(plan2.assignments[0].admission, Admission::Flagged);
        assert_eq!(
            plan2.assignments[0].program,
            batch.jobs()[0].program,
            "remap disabled: the submitted program runs"
        );
    }

    #[test]
    fn waves_roll_over_on_a_saturated_chip() {
        let fleet = FleetConfig::table1(1);
        let base = cost();
        let g = fleet.spec(0).cfg.geometry();
        // Shrink every subarray to exactly one 3-row slot so the chip
        // holds `subarrays_per_bank` jobs per wave.
        let policy = SchedPolicy {
            scratch_rows: g.rows_per_subarray() - 3,
            ..SchedPolicy::default()
        };
        let slots_per_chip = g.subarrays_per_bank();
        let exprs: Vec<&str> = std::iter::repeat_n("a & b", slots_per_chip + 2).collect();
        let batch = batch_of(&exprs, 4, 9);
        let plan = Planner::new(&fleet, &base, &policy).plan(&batch).unwrap();
        assert!(
            plan.waves >= 2,
            "expected a wave rollover, got {}",
            plan.waves
        );
        let first_rolled = plan
            .assignments
            .iter()
            .find(|a| a.wave == 1)
            .expect("a wave-1 assignment exists");
        assert_eq!(
            first_rolled.slot.subarray, 0,
            "rollover recycles from the start"
        );
        // A job that fits no member errors clearly, reporting the
        // fleet-wide largest slot (placement already skipped every
        // member that could never hold it).
        let impossible = batch_of(&["a&b&c&d&e&f&g&h&i&j&k&l&m&n&o&p&q&r&s&t"], 4, 9);
        match Planner::new(&fleet, &base, &policy).plan(&impossible) {
            Err(SchedError::JobTooLarge { rows, largest, .. }) => {
                assert_eq!(largest, 3, "fleet-wide largest idle slot");
                assert!(rows > largest);
            }
            other => panic!("expected JobTooLarge, got {other:?}"),
        }
    }

    /// A script-only fault plan (hazard disabled) so tests control the
    /// dropout time exactly.
    fn scripted_faults(member: usize, after_ns: f64) -> dram_core::FaultPlan {
        dram_core::FaultPlan {
            aging: dram_core::AgingPolicy {
                acceleration: 0.0,
                ..dram_core::AgingPolicy::default()
            },
            dropouts: vec![dram_core::PlannedDropout { member, after_ns }],
            ..dram_core::FaultPlan::demo()
        }
    }

    fn mix_batch(seed: u64) -> crate::queue::Batch {
        let exprs: Vec<&str> = ["a & b", "a | b", "a ^ b", "!(a & b & c)", "a & b & c & d"]
            .into_iter()
            .cycle()
            .take(20)
            .collect();
        batch_of(&exprs, 16, seed)
    }

    #[test]
    fn no_fault_plan_leaves_assignments_underated() {
        let fleet = FleetConfig::table1(3);
        let base = cost();
        let plan = Planner::new(&fleet, &base, &SchedPolicy::default())
            .plan(&mix_batch(7))
            .unwrap();
        assert!(plan.health.is_none());
        for a in &plan.assignments {
            assert_eq!(a.success_exp, 1.0);
            assert_eq!(a.replacements, 0);
            assert_eq!(a.wasted_ns, 0.0);
        }
    }

    #[test]
    fn scripted_dropout_replaces_in_flight_jobs_deterministically() {
        let fleet = FleetConfig::table1(3);
        let base = cost();
        let policy = SchedPolicy {
            faults: Some(scripted_faults(1, 400.0)),
            ..SchedPolicy::default()
        };
        let mut planner = Planner::new(&fleet, &base, &policy);
        let plan = planner.plan(&mix_batch(7)).unwrap();
        assert_eq!(
            plan,
            planner.plan(&mix_batch(7)).unwrap(),
            "planning is pure"
        );
        let health = plan.health.as_ref().expect("fault plan yields health");
        assert_eq!(health.dropouts.len(), 1, "{:?}", health.dropouts);
        let d = &health.dropouts[0];
        assert_eq!(d.member, 1);
        assert_eq!(d.at_ns, 400.0);
        assert!(d.replaced >= 1, "a mid-job death re-places its victims");
        assert_eq!(health.replaced_jobs, d.replaced);
        assert_eq!(
            health.members[1].dropped_at_ns,
            Some(400.0),
            "ledger mirrors the timeline"
        );
        let replaced: Vec<&Assignment> = plan
            .assignments
            .iter()
            .filter(|a| a.replacements > 0)
            .collect();
        assert_eq!(replaced.len(), d.replaced);
        for a in &replaced {
            assert_ne!(a.member, 1, "victims land on surviving members");
            assert!(a.wasted_ns >= 0.0);
        }
        assert!(
            replaced.iter().map(|a| a.wasted_ns).sum::<f64>() > 0.0,
            "time burned on the dead chip is charged"
        );
        // Work placed on member 1 before the death stays there.
        let kept = plan.assignments.iter().filter(|a| a.member == 1).count();
        assert!(kept >= 1, "completed jobs are not re-placed");
    }

    #[test]
    fn disturbance_threshold_schedules_mitigation_bandwidth() {
        let fleet = FleetConfig::table1(2);
        let base = cost();
        let mut faults = scripted_faults(0, f64::MAX);
        faults.dropouts.clear();
        faults.disturbance.threshold = 48; // a couple of jobs per zone
        let policy = SchedPolicy {
            faults: Some(faults),
            ..SchedPolicy::default()
        };
        let plan = Planner::new(&fleet, &base, &policy)
            .plan(&mix_batch(3))
            .unwrap();
        let health = plan.health.as_ref().unwrap();
        assert!(
            health.total_mitigations() > 0,
            "threshold 48 must trigger mitigations: {health:?}"
        );
        assert!(health.total_mitigation_ns() > 0.0);
        assert_eq!(health.dropouts.len(), 0);
        assert!(
            health.total_disturbance() > 0,
            "activations are charged to the ledger"
        );
        // Pressure derates at least one assignment past 1.0.
        assert!(plan.assignments.iter().any(|a| a.success_exp > 1.0));
    }

    #[test]
    fn dead_fleet_is_reported_as_exhausted() {
        let fleet = FleetConfig::table1(1);
        let base = cost();
        let policy = SchedPolicy {
            faults: Some(scripted_faults(0, 1.0)),
            ..SchedPolicy::default()
        };
        match Planner::new(&fleet, &base, &policy).plan(&mix_batch(1)) {
            Err(SchedError::FleetExhausted { .. }) => {}
            other => panic!("expected FleetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn effective_shards_clamp() {
        let p = SchedPolicy::default();
        assert_eq!(p.clone().with_shards(8).effective_workers(3), 3);
        assert_eq!(p.clone().with_shards(2).effective_workers(64), 2);
        assert!(p.clone().with_shards(0).effective_workers(64) >= 1);
        assert_eq!(p.clone().with_shards(5).effective_workers(0), 1);
        assert_eq!(p.with_shards(4).effective_workers(5), 3);
    }
}
