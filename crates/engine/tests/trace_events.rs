//! End-to-end checks of the structured tracing surface: a job with a known
//! plan must produce the expected event sequence, and the fold of the event
//! stream must equal the engine's own `StatsSnapshot` as a whole struct
//! (`docs/OBSERVABILITY.md` documents this contract; `tests/reconciliation.rs`
//! at the repository root checks it on the paper workloads, the shipped
//! programs and the job service).

use matryoshka_engine::trace::assert_reconciles;
use matryoshka_engine::{ClusterConfig, Engine, EngineEvent, JoinAlgorithm};

fn traced_engine() -> Engine {
    Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() })
}

/// One shuffle plan: parallelize -> map -> reduce_by_key -> count.
#[test]
fn shuffle_job_produces_expected_event_sequence() {
    let engine = traced_engine();
    let total = engine
        .parallelize((0..1000u64).collect::<Vec<_>>(), 4)
        .map(|i| (i % 7, 1u64))
        .reduce_by_key(|a, b| a + b)
        .count()
        .unwrap();
    assert_eq!(total, 7);

    let events = engine.events();
    assert!(!events.is_empty());

    // The job brackets everything: first event is the JobStart of the
    // `count` action, last is its successful JobEnd.
    match &events[0] {
        EngineEvent::JobStart { job, action, .. } => {
            assert_eq!(*job, 0);
            assert_eq!(*action, "count");
        }
        other => panic!("first event should be JobStart, got {other:?}"),
    }
    match events.last().unwrap() {
        EngineEvent::JobEnd { job, ok, .. } => {
            assert_eq!(*job, 0);
            assert!(*ok);
        }
        other => panic!("last event should be JobEnd, got {other:?}"),
    }

    // Exactly one shuffle, attributed to reduce_by_key, with positive volume.
    let shuffles: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Shuffle { operator, records, bytes, .. } => {
                Some((*operator, *records, *bytes))
            }
            _ => None,
        })
        .collect();
    assert_eq!(shuffles.len(), 1, "one shuffle expected, got {shuffles:?}");
    assert_eq!(shuffles[0].0, "reduce_by_key");
    assert!(shuffles[0].1 > 0 && shuffles[0].2 > 0);

    // Narrow map compute is attributed to the operator being evaluated, as
    // an unscheduled (pipelined) stage charge.
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::Stage { operator: "map", scheduled: false, .. })));
    // The shuffle read side is a real scheduled stage.
    assert!(events.iter().any(|e| matches!(e, EngineEvent::Stage { scheduled: true, .. })));

    // No broadcast in this plan.
    assert!(!events.iter().any(|e| matches!(e, EngineEvent::Broadcast { .. })));

    // Event times are monotone within each interval.
    for e in &events {
        match e {
            EngineEvent::Stage { start, end, .. }
            | EngineEvent::Shuffle { start, end, .. }
            | EngineEvent::Broadcast { start, end, .. }
            | EngineEvent::Spill { start, end, .. }
            | EngineEvent::Collect { start, end, .. } => {
                assert!(start <= end, "interval runs backwards: {e:?}")
            }
            _ => {}
        }
    }
}

/// Broadcast-join plan: the small side is collected + broadcast, never
/// shuffled.
#[test]
fn broadcast_join_job_traces_broadcast_not_shuffle() {
    let engine = traced_engine();
    let big = engine.parallelize((0..512u64).map(|i| (i % 16, i)).collect::<Vec<_>>(), 4);
    let small = engine.parallelize((0..16u64).map(|i| (i, i * 100)).collect::<Vec<_>>(), 1);
    let joined = big.joined_with(&small, JoinAlgorithm::BroadcastRight).pairs().count().unwrap();
    assert_eq!(joined, 512);

    let events = engine.events();
    let broadcasts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Broadcast { operator, bytes, .. } => Some((*operator, *bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(broadcasts.len(), 1, "one broadcast expected, got {broadcasts:?}");
    assert_eq!(broadcasts[0].0, "broadcast_join");
    assert!(broadcasts[0].1 > 0);

    // Collecting the small side to the driver is traced too.
    assert!(events.iter().any(|e| matches!(e, EngineEvent::Collect { records: 16, .. })));
    // The probe side is never shuffled.
    assert!(!events.iter().any(|e| matches!(e, EngineEvent::Shuffle { .. })));
}

/// A fused narrow chain emits one StageFused event carrying the composite
/// op list, and the per-op Stage charges still appear under each original
/// operator name (the sim-transparency contract).
#[test]
fn fused_chain_traces_a_stage_fused_event() {
    let engine = traced_engine();
    // Bind the tail before the action so the chain is exclusively owned at
    // eval time (see DESIGN.md "Narrow-stage fusion").
    let tail = engine
        .parallelize((0..1000u64).collect::<Vec<_>>(), 4)
        .map(|i| i * 2)
        .filter(|i| i % 3 != 0);
    assert_eq!(tail.count().unwrap(), 666);

    let events = engine.events();
    let fused: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::StageFused {
                ops, ops_fused, intermediates_elided, partitions, ..
            } => Some((*ops, *ops_fused, *intermediates_elided, *partitions)),
            _ => None,
        })
        .collect();
    assert_eq!(fused, [("fused(map|filter)", 2, 1, 4)], "events: {events:?}");
    // The replayed per-op charges keep their original attribution.
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::Stage { operator: "map", scheduled: false, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::Stage { operator: "filter", scheduled: false, .. })));
    // And the event feeds the fusion counters.
    let stats = engine.stats();
    assert_eq!((stats.stages_fused, stats.intermediates_elided), (1, 1));
    assert_reconciles(&engine);
}

/// The fold of the event stream equals the engine's counters, every field.
#[test]
fn trace_summary_reconciles_with_stats_snapshot() {
    let engine = traced_engine();
    engine
        .parallelize((0..2000u64).collect::<Vec<_>>(), 8)
        .map(|i| (i % 13, *i))
        .reduce_by_key(|a, b| a + b)
        .count()
        .unwrap();
    let small = engine.parallelize((0..13u64).map(|i| (i, ())).collect::<Vec<_>>(), 1);
    engine
        .parallelize((0..100u64).map(|i| (i % 13, i)).collect::<Vec<_>>(), 4)
        .joined_with(&small, JoinAlgorithm::BroadcastRight)
        .pairs()
        .count()
        .unwrap();

    assert_reconciles(&engine);
    assert_eq!(engine.stats().jobs, 2);
}

/// With tracing off (the default) no events are recorded, but the engine's
/// statistics still accumulate.
#[test]
fn tracing_off_records_no_events_but_stats_still_accumulate() {
    let engine = Engine::new(ClusterConfig::local_test());
    assert!(!engine.tracing_enabled());
    engine
        .parallelize((0..100u64).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4)
        .reduce_by_key(|a, b| a + b)
        .count()
        .unwrap();
    assert!(engine.events().is_empty());
    let stats = engine.stats();
    assert_eq!(stats.jobs, 1);
    assert!(stats.shuffle_bytes > 0);
}

/// The exporters produce well-formed output for a real run.
#[test]
fn exports_cover_a_real_run() {
    let engine = traced_engine();
    engine
        .parallelize((0..200u64).map(|i| (i % 3, i)).collect::<Vec<_>>(), 4)
        .reduce_by_key(|a, b| a + b)
        .collect()
        .unwrap();

    let json = engine.trace_json();
    assert!(json.contains("\"events\""));
    assert!(json.contains("\"decisions\""));
    assert!(json.contains("\"summary\""));
    assert!(json.contains("\"shuffle\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // The chrome trace is the JSON-array flavor of the Trace Event Format.
    let chrome = engine.chrome_trace();
    assert!(chrome.trim_start().starts_with('['));
    assert!(chrome.trim_end().ends_with(']'));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("job 0: collect"));
}
