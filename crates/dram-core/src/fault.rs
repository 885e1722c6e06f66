//! Deterministic fault injection: read-disturbance accumulation and
//! MIL-HDBK-217F-style hazard-rate chip aging.
//!
//! The paper characterizes FCDRAM on *healthy* chips, but simultaneous
//! many-row activation is exactly the access pattern that accrues read
//! disturbance (RowHammer/RowPress-style victim weakening) and
//! accelerates wear. This module supplies the two fault models the
//! workspace's degradation scenarios are built from:
//!
//! * [`DisturbanceState`] — per-subarray activation counters charged on
//!   every (multi-)row activation. Counters are pure bookkeeping
//!   (each activation charges the rows it raises); once a
//!   subarray's count crosses [`DisturbancePolicy::threshold`] without
//!   a mitigation, its cells' modeled success rates are derated by
//!   raising them to a pressure-dependent exponent.
//! * [`AgingPolicy`] + [`hazard_rate`] — the MIL-HDBK-217F §5.2 memory
//!   model `λ_p = (C1·π_T + C2·π_E)·π_Q·π_L` (failures per 10⁶ hours):
//!   die-complexity term by density, Arrhenius temperature factor,
//!   package/environment/quality/learning factors. A seeded
//!   [`FaultPlan`] turns the hazard rate into one deterministic failure
//!   time per fleet member (inverse-CDF of the exponential lifetime
//!   distribution), optionally overridden by explicit scripted
//!   dropouts.
//!
//! Everything here is a pure function of the plan seed and the chip
//! identity — no clocks, no OS entropy — so degradation scenarios are
//! byte-identical across shard counts and execution backends.

use crate::config::Density;
use crate::math::{hash_to_unit, mix3};
use crate::thermal::Temperature;
use serde::{Deserialize, Serialize};

/// Modeled failure times at or beyond this horizon (in modeled
/// nanoseconds) are reported as "never fails": far beyond any served
/// session, and kept out of serialized reports (JSON has no infinity).
pub(crate) const FAIL_HORIZON_NS: f64 = 1e15;

/// Read-disturbance accounting knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbancePolicy {
    /// Activation-row count at which a subarray needs mitigation
    /// (targeted refresh of its victim rows).
    pub threshold: u64,
    /// Success-derating strength past the threshold: an unmitigated
    /// subarray's success rates are raised to the exponent
    /// `1 + derate · (acts − threshold)/threshold`.
    pub derate: f64,
    /// Modeled latency of one mitigation operation, nanoseconds. A
    /// scheduler charges this against the owning chip's slot lease —
    /// mitigation steals serving bandwidth.
    pub mitigation_ns: f64,
}

impl Default for DisturbancePolicy {
    fn default() -> Self {
        DisturbancePolicy {
            threshold: 4096,
            derate: 1.5,
            mitigation_ns: 350.0,
        }
    }
}

/// Per-subarray read-disturbance counters of one chip (or one modeled
/// bank): activations since the last mitigation, lifetime activations,
/// and mitigations performed.
///
/// Charging is unconditional integer bookkeeping, so the state is
/// bit-identical across simulation fidelities, shard counts, and
/// execution backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceState {
    /// Activation-rows charged per zone since its last mitigation.
    acts: Vec<u64>,
    /// Lifetime activation-rows charged per zone.
    lifetime: Vec<u64>,
    /// Mitigations performed per zone.
    mitigations: Vec<u64>,
}

impl DisturbanceState {
    /// Fresh counters over `zones` subarrays.
    pub fn new(zones: usize) -> DisturbanceState {
        DisturbanceState {
            acts: vec![0; zones],
            lifetime: vec![0; zones],
            mitigations: vec![0; zones],
        }
    }

    /// Charges `rows` activation-rows to zone `zone`.
    #[inline]
    pub fn charge(&mut self, zone: usize, rows: u64) {
        self.acts[zone] += rows;
        self.lifetime[zone] += rows;
    }

    /// Whether `zone` has crossed the mitigation threshold.
    #[inline]
    pub fn needs_mitigation(&self, zone: usize, policy: &DisturbancePolicy) -> bool {
        policy.threshold > 0 && self.acts[zone] >= policy.threshold
    }

    /// Performs one mitigation on `zone`: the counter drops by one
    /// threshold (residual disturbance above the threshold carries
    /// over, like a refresh queue draining one victim set at a time).
    pub fn mitigate(&mut self, zone: usize, policy: &DisturbancePolicy) {
        self.acts[zone] = self.acts[zone].saturating_sub(policy.threshold.max(1));
        self.mitigations[zone] += 1;
    }

    /// Success-derating exponent of `zone`: `1.0` below the threshold,
    /// growing linearly with the unmitigated excess above it. Success
    /// rates are raised to this power, so `1.0` is a no-op.
    pub fn derate_exponent(&self, zone: usize, policy: &DisturbancePolicy) -> f64 {
        if policy.threshold == 0 || self.acts[zone] < policy.threshold {
            return 1.0;
        }
        let excess = (self.acts[zone] - policy.threshold) as f64;
        1.0 + policy.derate * excess / policy.threshold as f64
    }

    /// Lifetime activation-rows across all zones.
    pub fn lifetime_total(&self) -> u64 {
        self.lifetime.iter().sum()
    }

    /// Mitigations performed across all zones.
    pub fn mitigations_total(&self) -> u64 {
        self.mitigations.iter().sum()
    }
}

/// MIL-HDBK-217F §5.2 die-complexity term `C1` for a DRAM of the given
/// density (failures per 10⁶ hours). The handbook ladder is
/// `[0.0013, 0.0025, 0.005, 0.01]` for up-to 16K / 64K / 256K / 1M
/// bits-per-chip class; every Table-1 part (4 Gb / 8 Gb) lands in the
/// top class.
pub(crate) fn c1(density: Density) -> f64 {
    match density {
        Density::Gb4 | Density::Gb8 => 0.01,
    }
}

/// MIL-HDBK-217F Arrhenius temperature factor `π_T` for memory
/// (activation energy 0.6 eV, referenced to 25 °C junction).
pub(crate) fn pi_t(temp: Temperature) -> f64 {
    const EA_OVER_K: f64 = 0.6 / 8.617e-5; // eV / (eV/K)
    let t_k = temp.as_celsius() + 273.15;
    0.1 * (-EA_OVER_K * (1.0 / t_k - 1.0 / 298.15)).exp()
}

/// Hazard-rate aging knobs: the non-die factors of the MIL-HDBK-217F
/// part failure rate, plus the accelerated-life scaling that maps
/// handbook hours onto modeled serving nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingPolicy {
    /// Package failure-rate term `C2`.
    pub c2: f64,
    /// Environment factor `π_E` (ground benign = 0.5, ground fixed =
    /// 2.0, ...).
    pub pi_e: f64,
    /// Quality factor `π_Q`.
    pub pi_q: f64,
    /// Learning factor `π_L` (mature production = 1.0).
    pub pi_l: f64,
    /// Accelerated-life scaling: how many wall-clock nanoseconds of
    /// handbook aging one modeled serving nanosecond represents. A
    /// served session covers microseconds of modeled time; this factor
    /// compresses the part's multi-year lifetime into it.
    pub acceleration: f64,
    /// Wear-derating strength: as a chip approaches its failure time,
    /// success rates are raised to `1 + wear · (age/failure time)`.
    pub wear: f64,
}

impl Default for AgingPolicy {
    fn default() -> Self {
        AgingPolicy {
            c2: 0.0068,
            pi_e: 2.0,
            pi_q: 1.0,
            pi_l: 1.0,
            acceleration: 1e15,
            wear: 2.0,
        }
    }
}

/// The MIL-HDBK-217F part failure rate
/// `λ_p = (C1·π_T + C2·π_E)·π_Q·π_L`, in failures per 10⁶ hours.
pub fn hazard_rate(density: Density, temp: Temperature, aging: &AgingPolicy) -> f64 {
    (c1(density) * pi_t(temp) + aging.c2 * aging.pi_e) * aging.pi_q * aging.pi_l
}

/// One scripted chip death: fleet member `member` fails once its
/// served load crosses `after_ns` modeled nanoseconds, regardless of
/// its hazard draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedDropout {
    /// Fleet member index.
    pub member: usize,
    /// Modeled serving time at which the member fails, nanoseconds.
    pub after_ns: f64,
}

/// A seeded degradation scenario: everything a scheduler needs to run
/// a fleet through disturbance accumulation, aging, and dropouts,
/// deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scenario seed: failure-time draws mix it with each chip's
    /// identity, so two plans with different seeds age the same fleet
    /// differently.
    pub seed: u64,
    /// Read-disturbance accounting knobs.
    pub disturbance: DisturbancePolicy,
    /// Hazard-rate aging knobs.
    pub aging: AgingPolicy,
    /// Scripted dropouts layered on top of the hazard draws (a member
    /// fails at the *earlier* of its draw and its script entry).
    pub dropouts: Vec<PlannedDropout>,
}

impl FaultPlan {
    /// The built-in demonstration scenario (`--faults demo`): an
    /// aggressive disturbance threshold so a served demo batch
    /// schedules real mitigation traffic, default aging knobs, plus
    /// one scripted mid-session dropout of member 1 guaranteeing the
    /// scenario exercises in-flight job re-placement
    /// deterministically.
    pub fn demo() -> FaultPlan {
        FaultPlan {
            seed: 0xFA117,
            disturbance: DisturbancePolicy {
                threshold: 96,
                ..DisturbancePolicy::default()
            },
            aging: AgingPolicy::default(),
            dropouts: vec![PlannedDropout {
                member: 1,
                after_ns: 2500.0,
            }],
        }
    }

    /// Deterministic modeled failure time of fleet member `member`
    /// (identified by its chip seed), in modeled serving nanoseconds.
    /// `None` means the member outlives any session
    /// (`FAIL_HORIZON_NS`).
    ///
    /// The draw inverts the exponential lifetime CDF at the member's
    /// hazard rate: `t = −ln(1−u)/λ` handbook hours, compressed by
    /// [`AgingPolicy::acceleration`]; a scripted
    /// [`PlannedDropout`] caps the result.
    pub fn fail_at_ns(
        &self,
        member: usize,
        chip_seed: u64,
        density: Density,
        temp: Temperature,
    ) -> Option<f64> {
        let lambda = hazard_rate(density, temp, &self.aging); // per 1e6 h
        let mut at = if lambda > 0.0 && self.aging.acceleration > 0.0 {
            let u = hash_to_unit(mix3(self.seed, member as u64, chip_seed));
            let hours = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / lambda * 1e6;
            hours * 3.6e12 / self.aging.acceleration
        } else {
            FAIL_HORIZON_NS
        };
        for d in &self.dropouts {
            if d.member == member {
                at = at.min(d.after_ns);
            }
        }
        (at < FAIL_HORIZON_NS).then_some(at)
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns the deserialization error as a string.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid fault plan: {e}"))
    }
}

/// Activation-rows one native FCDRAM step charges to its subarray:
/// an `N`-input gate stages `N` operand rows plus reference scratch
/// and fires one `N:N` charge-sharing double activation (`3N + 3`
/// activation-rows end to end); a NOT is one staged source plus the
/// `ACT → PRE → ACT` copy-invert pair (4). `fan_in` is `None` for NOT.
pub fn step_activations(fan_in: Option<usize>) -> u64 {
    match fan_in {
        Some(n) => 3 * n as u64 + 3,
        None => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbance_counters_charge_and_mitigate() {
        let policy = DisturbancePolicy {
            threshold: 100,
            derate: 2.0,
            mitigation_ns: 50.0,
        };
        let mut s = DisturbanceState::new(4);
        assert_eq!(s.acts.len(), 4);
        s.charge(1, 60);
        assert!(!s.needs_mitigation(1, &policy));
        assert_eq!(s.derate_exponent(1, &policy), 1.0, "below threshold");
        s.charge(1, 90);
        assert!(s.needs_mitigation(1, &policy));
        // 150 pending = threshold + 50 excess → 1 + 2·(50/100).
        assert!((s.derate_exponent(1, &policy) - 2.0).abs() < 1e-12);
        s.mitigate(1, &policy);
        assert_eq!(s.acts[1], 50);
        assert_eq!(s.mitigations_total(), 1);
        assert_eq!(s.lifetime_total(), 150, "lifetime never resets");
        assert_eq!(s.derate_exponent(1, &policy), 1.0);
        // Other zones untouched.
        assert_eq!(s.acts[0], 0);
    }

    #[test]
    fn zero_threshold_disables_derating() {
        let policy = DisturbancePolicy {
            threshold: 0,
            derate: 2.0,
            mitigation_ns: 0.0,
        };
        let mut s = DisturbanceState::new(1);
        s.charge(0, 1_000_000);
        assert!(!s.needs_mitigation(0, &policy));
        assert_eq!(s.derate_exponent(0, &policy), 1.0);
    }

    #[test]
    fn hazard_rate_follows_the_handbook_shape() {
        let aging = AgingPolicy::default();
        let l50 = hazard_rate(Density::Gb4, Temperature::BASELINE, &aging);
        let l85 = hazard_rate(Density::Gb4, Temperature::celsius(85.0), &aging);
        assert!(l50 > 0.0);
        assert!(l85 > l50, "Arrhenius: hotter parts fail faster");
        assert_eq!(c1(Density::Gb4), c1(Density::Gb8), "both in the 1M+ class");
        // The package term floors the rate even at cryogenic π_T.
        let cold = hazard_rate(Density::Gb4, Temperature::celsius(-50.0), &aging);
        assert!(cold >= aging.c2 * aging.pi_e * aging.pi_q * aging.pi_l - 1e-12);
    }

    #[test]
    fn fail_times_are_seeded_and_member_distinct() {
        let plan = FaultPlan {
            dropouts: Vec::new(),
            ..FaultPlan::demo()
        };
        let t = Temperature::BASELINE;
        let a0 = plan.fail_at_ns(0, 0xAA, Density::Gb4, t);
        let a0_again = plan.fail_at_ns(0, 0xAA, Density::Gb4, t);
        assert_eq!(a0, a0_again, "pure function of the identity");
        let a1 = plan.fail_at_ns(1, 0xBB, Density::Gb4, t);
        assert_ne!(a0, a1, "members draw independent lifetimes");
        let reseeded = FaultPlan {
            seed: plan.seed ^ 1,
            ..plan.clone()
        };
        assert_ne!(
            a0,
            reseeded.fail_at_ns(0, 0xAA, Density::Gb4, t),
            "seed-sensitive"
        );
    }

    #[test]
    fn scripted_dropouts_cap_the_draw() {
        let plan = FaultPlan::demo();
        let t = Temperature::BASELINE;
        let at = plan
            .fail_at_ns(1, 0x1234, Density::Gb8, t)
            .expect("scripted member fails");
        assert!(at <= 2500.0, "script caps the hazard draw: {at}");
        // A zero-hazard plan still honors the script.
        let script_only = FaultPlan {
            aging: AgingPolicy {
                acceleration: 0.0,
                ..AgingPolicy::default()
            },
            ..FaultPlan::demo()
        };
        assert_eq!(
            script_only.fail_at_ns(1, 0x1234, Density::Gb8, t),
            Some(2500.0)
        );
        assert_eq!(
            script_only.fail_at_ns(0, 0x1234, Density::Gb8, t),
            None,
            "unscripted members never fail without hazard"
        );
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::demo();
        let json = serde_json::to_string_pretty(&plan).unwrap();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert!(FaultPlan::from_json("{not json").is_err());
    }

    #[test]
    fn step_activation_counts() {
        assert_eq!(step_activations(None), 4, "NOT");
        assert_eq!(step_activations(Some(2)), 9);
        assert_eq!(step_activations(Some(16)), 51);
    }
}
