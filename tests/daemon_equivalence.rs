//! Serving-daemon equivalence properties: *the daemon report is a
//! pure function of (session log, fleet, cost model)*.
//!
//! * a live session — per-tenant producer threads, admission control,
//!   SLO-tiered micro-batching, graceful drain — records a session log
//!   whose replay reproduces the [`fcserve::DaemonReport`]
//!   **byte-identically at any shard count, on either execution
//!   backend** (the property the CI determinism stage also enforces
//!   through `characterize daemon --record`/`--replay`);
//! * the session log round-trips through its JSON format exactly;
//! * the demo tenant fleet exercises every admission path
//!   deterministically — queue-overflow shedding, reliability-floor
//!   rejection, per-chip narrowing on strained fleet members — and the
//!   report is **seed-sensitive**: a reseeded session shapes different
//!   traffic;
//! * replay refuses structurally-invalid logs (wrong schema version,
//!   out-of-range indices) instead of replaying garbage.

use characterize::daemon::demo_tenants;
use dram_core::FleetConfig;
use fcexec::BackendKind;
use fcserve::{daemon, DaemonConfig, DaemonReport, ServeError, SessionLog};
use fcsynth::CostModel;

fn demo_session(seed: u64) -> (SessionLog, DaemonReport) {
    let cost = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let cfg = DaemonConfig {
        seed,
        ..DaemonConfig::default()
    };
    daemon::run_live(&fleet, &cost, &cfg, &demo_tenants()).expect("demo session runs")
}

#[test]
fn replay_is_byte_identical_across_shards_and_backends() {
    let cost = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let (log, live) = demo_session(0);
    let live_json = live.to_json();
    for shards in [1usize, 3, 5] {
        for backend in [BackendKind::Vm, BackendKind::Bender] {
            let replayed = daemon::replay(&fleet, &cost, &log, Some(shards), Some(backend))
                .expect("replay runs");
            assert_eq!(
                live_json,
                replayed.to_json(),
                "report bytes differ at shards={shards} backend={backend}"
            );
        }
    }
    // The digest is part of the report, so byte-identity covers the
    // result bits too; make the stronger claim explicit anyway.
    let replayed = daemon::replay(&fleet, &cost, &log, None, None).expect("replay runs");
    assert_eq!(live.totals.result_digest, replayed.totals.result_digest);
}

#[test]
fn session_log_round_trips_and_replays_from_json() {
    let cost = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let (log, live) = demo_session(3);
    let parsed = SessionLog::from_json(&log.to_json()).expect("log round-trips");
    assert_eq!(parsed, log);
    let replayed = daemon::replay(&fleet, &cost, &parsed, None, None).expect("replay runs");
    assert_eq!(live.to_json(), replayed.to_json());
}

/// Logs recorded while execution still had an on/off fusion knob carry
/// a `fuse` key in their policy. Unknown keys are ignored, so such a
/// log — even one recorded with fusion off — replays to the
/// byte-identical report.
#[test]
fn session_log_with_a_fuse_key_replays_byte_identically() {
    let cost = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let (log, live) = demo_session(5);
    let json = log.to_json();
    let marker = "\"policy\": {";
    assert_eq!(json.matches(marker).count(), 1, "one policy object");
    let old_json = json.replacen(marker, "\"policy\": {\n    \"fuse\": false,", 1);
    let parsed = SessionLog::from_json(&old_json).expect("old log parses");
    assert_eq!(parsed, log);
    let replayed = daemon::replay(&fleet, &cost, &parsed, None, None).expect("replay runs");
    assert_eq!(live.to_json(), replayed.to_json());
}

#[test]
fn demo_session_is_deterministic_and_seed_sensitive() {
    let (log_a, report_a) = demo_session(0);
    let (log_b, report_b) = demo_session(0);
    assert_eq!(log_a, log_b, "same seed, same recorded session");
    assert_eq!(report_a.to_json(), report_b.to_json());

    let (log_c, report_c) = demo_session(0xC0FFEE);
    assert_ne!(log_a.events, log_c.events, "reseeding reshapes traffic");
    assert_ne!(report_a.to_json(), report_c.to_json());
}

#[test]
fn demo_session_exercises_every_admission_path() {
    let (log, report) = demo_session(0);
    let t = &report.totals;
    assert_eq!(t.submitted, log.events.len());
    assert!(t.shed > 0, "bronze overflow sheds: {t:?}");
    assert!(t.rejected > 0, "unservable contract rejects: {t:?}");
    assert!(t.narrowed > 0, "strained chips narrow: {t:?}");
    assert_eq!(t.undrained, 0, "demo load drains clean: {t:?}");
    assert_eq!(t.completed + t.failed, t.admitted);
    let by_tier = report.tier_counts();
    assert_eq!(by_tier[0].2, 0, "gold is never shed");
    assert!(by_tier[2].2 > 0, "bronze takes the backpressure");
    assert!(!report.snapshots.is_empty(), "health snapshots recorded");
}

#[test]
fn replay_rejects_invalid_logs() {
    let cost = CostModel::table1_defaults();
    let fleet = FleetConfig::table1(12);
    let (log, _) = demo_session(0);

    let mut wrong_version = log.clone();
    wrong_version.version += 1;
    let err = daemon::replay(&fleet, &cost, &wrong_version, None, None).unwrap_err();
    assert!(matches!(err, ServeError::BadSession(_)), "{err}");

    let mut bad_index = log.clone();
    if let Some(e) = bad_index.events.first_mut() {
        e.tenant = bad_index.tenants.len();
    }
    assert!(daemon::replay(&fleet, &cost, &bad_index, None, None).is_err());
}
