//! Property-based tests for the telemetry primitives: histogram
//! quantile laws, flight-recorder ring-buffer eviction and dump
//! integrity, span nesting under the sim clock, JSON scanner
//! robustness under hostile bytes, and causal-trace well-formedness,
//! also with children opened from several workers.

use drone_telemetry::{
    derive_trace_id, Clock, DumpReason, FlightRecorder, Histogram, Json, TraceBuilder,
};
use proptest::prelude::*;

/// Positive magnitudes spanning the histogram's useful range.
fn magnitude() -> impl Strategy<Value = f64> {
    (-8.0f64..8.0).prop_map(|exp| 10f64.powf(exp))
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(magnitude(), 1..200)
}

proptest! {
    #[test]
    fn quantiles_are_monotone_in_q(values in samples()) {
        let mut hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        let mut last = f64::NEG_INFINITY;
        for q in qs {
            let value = hist.quantile(q).expect("non-empty");
            prop_assert!(
                value >= last,
                "quantile({q}) = {value} < previous {last}"
            );
            last = value;
        }
    }

    #[test]
    fn p0_and_p100_are_exact_extremes(values in samples()) {
        let mut hist = Histogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &values {
            hist.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        prop_assert_eq!(hist.quantile(0.0), Some(min));
        prop_assert_eq!(hist.quantile(1.0), Some(max));
        prop_assert_eq!(hist.count(), values.len() as u64);
    }

    #[test]
    fn quantiles_stay_within_observed_range(values in samples(), q in 0.0f64..1.0) {
        let mut hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let value = hist.quantile(q).expect("non-empty");
        prop_assert!(value >= hist.min().unwrap());
        prop_assert!(value <= hist.max().unwrap());
    }

    #[test]
    fn interior_quantiles_carry_bounded_relative_error(values in samples(), q in 0.05f64..0.95) {
        let mut hist = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            hist.record(v);
        }
        sorted.sort_by(f64::total_cmp);
        // The exact order statistic the bucket walk targets.
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        let exact = sorted[rank];
        let approx = hist.quantile(q).expect("non-empty");
        // One bucket of log-scale resolution: 10^(1/32) ≈ 7.5 %.
        prop_assert!(
            approx >= exact * 0.999 && approx <= exact * 1.08,
            "quantile({q}) = {approx} vs exact {exact}"
        );
    }

    #[test]
    fn one_sample_histograms_are_exact_everywhere(value in magnitude(), q in 0.0f64..1.0) {
        let mut hist = Histogram::new();
        hist.record(value);
        prop_assert_eq!(hist.quantile(q), Some(value));
        prop_assert_eq!(hist.mean(), Some(value));
    }

    #[test]
    fn histogram_json_round_trips(values in prop::collection::vec(magnitude(), 0..100)) {
        let mut hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let text = hist.to_json().render();
        let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, hist);
    }

    /// The hand-rolled scanner must never panic: arbitrary bytes
    /// (including invalid UTF-8 and truncated multi-byte runs) either
    /// parse or come back as a typed `ParseError`.
    #[test]
    fn hostile_bytes_never_panic_the_parser(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&raw).into_owned();
        let _ = Json::parse(&text);
        // The same bytes wrapped into string/number positions, where the
        // two hardened decode paths live.
        let quoted = format!("{{\"k\":\"{text}\"}}");
        let _ = Json::parse(&quoted);
        let numeric = format!("[1, {text}]");
        let _ = Json::parse(&numeric);
    }

    /// Non-ASCII strings survive a full render → parse round trip.
    #[test]
    fn non_ascii_strings_round_trip(
        chars in prop::collection::vec(
            prop_oneof![
                Just('é'), Just('ß'), Just('λ'), Just('中'), Just('🚁'),
                Just('\u{7f}'), Just('"'), Just('\\'), Just('\n'), Just('a'),
            ],
            0..40,
        ),
    ) {
        let s: String = chars.into_iter().collect();
        let doc = Json::obj().with("s", s.as_str());
        let back = Json::parse(&doc.render()).expect("rendered JSON must parse");
        prop_assert_eq!(back.get("s").unwrap().as_str(), Some(s.as_str()));
    }

    /// Trace well-formedness: every opened span is recorded exactly
    /// once, children's intervals nest inside their parent's lifetime
    /// (on the sim clock), and ids depend only on structure — not on
    /// how many spans ran or in what order they closed.
    #[test]
    fn traces_are_well_formed(
        seed in 0u64..1000,
        request in 0u64..1000,
        fanout in prop::collection::vec(0usize..6, 1..5),
    ) {
        let clock = Clock::sim();
        let builder = TraceBuilder::new(derive_trace_id(seed, request), clock.clone());
        let mut opened = 1usize;
        {
            let root = builder.root("serve.request");
            for (round, &points) in fanout.iter().enumerate() {
                let round_span = root.child("explore.round", round as u64);
                clock.advance(0.25);
                for point in 0..points {
                    let mut leaf = round_span.child("point", point as u64);
                    leaf.tag("cache", if point % 2 == 0 { "miss" } else { "hit" });
                    clock.advance(0.125);
                    opened += 1;
                }
                opened += 1;
            }
        }
        prop_assert_eq!(builder.open_spans(), 0, "every span closed");
        let trace = builder.finish();
        prop_assert_eq!(trace.span_count(), opened, "each span recorded exactly once");
        prop_assert_eq!(trace.open_at_finish, 0);
        prop_assert_eq!(trace.dropped_spans, 0);
        // Unique ids — "exactly once" also means no duplicate records.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.span_id).collect();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.span_count());
        // Children open and close within the parent's lifetime.
        for span in &trace.spans {
            prop_assert!(span.end_s >= span.start_s);
            if span.parent_id != 0 {
                let parent = trace
                    .spans
                    .iter()
                    .find(|p| p.span_id == span.parent_id)
                    .expect("parent recorded");
                prop_assert!(span.start_s >= parent.start_s, "child opens after parent");
                prop_assert!(span.end_s <= parent.end_s, "child closes before parent");
            }
        }
    }

    /// The deterministic rendering is a pure function of structure:
    /// rebuilding the same trace (even with children closed in reverse)
    /// yields byte-identical JSON.
    #[test]
    fn deterministic_json_is_reproducible(seed in 0u64..1000, points in 1usize..8) {
        let build = |reverse: bool| {
            let builder = TraceBuilder::new(derive_trace_id(seed, 1), Clock::sim());
            let root = builder.root("serve.request");
            let mut children: Vec<_> = (0..points)
                .map(|i| {
                    let mut s = root.child("point", i as u64);
                    s.set_worker(if reverse { 3 } else { 0 });
                    s.tag("cache", "miss");
                    s
                })
                .collect();
            if reverse {
                children.reverse();
            }
            drop(children);
            drop(root);
            builder.finish().deterministic_json().render()
        };
        prop_assert_eq!(build(false), build(true));
    }

    /// Children opened from several scoped workers under one parent,
    /// the way `evaluate_block` opens its `point` spans, with guards
    /// leaked at random and a random capacity: every span opened is
    /// recorded, dropped over capacity or leaked, and each leaked guard
    /// is counted open exactly once.
    #[test]
    fn concurrent_children_account_for_every_guard(
        capacity in 0usize..48,
        blocks in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..8), 1..4),
    ) {
        let builder = TraceBuilder::with_capacity(derive_trace_id(5, 1), Clock::wall(), capacity);
        let root = builder.root("serve.request");
        // Every worker opens its first child only once all have started.
        let start = std::sync::Barrier::new(blocks.len());
        std::thread::scope(|scope| {
            for (worker, leaks) in blocks.iter().enumerate() {
                let (root, start) = (&root, &start);
                scope.spawn(move || {
                    start.wait();
                    for (k, &leak) in leaks.iter().enumerate() {
                        let mut span = root.child("point", (worker * 8 + k) as u64);
                        span.set_worker(worker);
                        span.child("eval.size", 0).tag("feasible", leak);
                        if leak {
                            std::mem::forget(span);
                        }
                    }
                });
            }
        });
        drop(root);
        let points: usize = blocks.iter().map(Vec::len).sum();
        let leaked = blocks.iter().flatten().filter(|&&leak| leak).count();
        // The root, and per point the point itself and its leaf.
        let opened = 1 + 2 * points;
        let trace = builder.finish();
        prop_assert_eq!(
            trace.span_count() + trace.dropped_spans as usize,
            opened - leaked
        );
        prop_assert_eq!(trace.span_count(), (opened - leaked).min(capacity));
        prop_assert_eq!(trace.open_at_finish as usize, leaked);
    }

    /// A guard leaked among a batch of sibling `point` spans (one
    /// block's points under one parent) is counted once, and every
    /// sibling that did close is still recorded.
    #[test]
    fn a_guard_leaked_in_a_batch_counts_once(points in 1usize..12, leaked in 0usize..12) {
        let leaked = leaked % points;
        let builder = TraceBuilder::new(derive_trace_id(3, 1), Clock::sim());
        {
            let root = builder.root("serve.request");
            for point in 0..points {
                let mut span = root.child("point", point as u64);
                let _leaf = span.child("eval.size", 0);
                span.tag("cache", "miss");
                if point == leaked {
                    std::mem::forget(span);
                }
            }
        }
        let trace = builder.finish();
        prop_assert_eq!(trace.open_at_finish, 1);
        prop_assert_eq!(trace.dropped_spans, 0);
        // The root, every point but the leaked one, and every leaf.
        prop_assert_eq!(trace.span_count(), 1 + (points - 1) + points);
        for point in 0..points {
            let present = trace
                .spans
                .iter()
                .any(|s| s.name == "point" && s.order == point as u64);
            prop_assert_eq!(present, point != leaked, "point {}", point);
        }
    }

    /// Capacity applies to a batch of sibling spans as to any other,
    /// and every span past it is counted: recorded + dropped = opened.
    #[test]
    fn overflow_through_a_batch_counts_every_drop(
        capacity in 0usize..16,
        direct in 0usize..8,
        batched in 0usize..24,
    ) {
        let builder = TraceBuilder::with_capacity(5, Clock::sim(), capacity);
        {
            let root = builder.root("serve.request");
            for i in 0..direct {
                let _ = root.child("direct", i as u64);
            }
            let mut block = root.child("explore.round", 0);
            block.tag("points", batched);
            for i in 0..batched {
                let _ = block.child("batched", i as u64);
            }
        }
        let opened = 1 + direct + 1 + batched;
        let trace = builder.finish();
        prop_assert_eq!(trace.span_count(), opened.min(capacity));
        prop_assert_eq!(trace.dropped_spans as usize, opened - opened.min(capacity));
        prop_assert_eq!(trace.open_at_finish, 0);
    }

    #[test]
    fn ring_buffer_retains_exactly_the_newest_window(
        capacity in 1usize..64,
        total in 0usize..200,
    ) {
        let mut recorder = FlightRecorder::new(capacity);
        let value = recorder.channel("value");
        for tick in 0..total {
            recorder.begin_tick(tick as f64 * 1e-3);
            recorder.set(value, tick as f64);
            recorder.commit_tick();
        }
        prop_assert_eq!(recorder.len(), total.min(capacity));
        let expect_first = total.saturating_sub(capacity);
        let ticks: Vec<u64> = recorder.iter().map(|(id, _, _)| id).collect();
        let expected: Vec<u64> = (expect_first as u64..total as u64).collect();
        prop_assert_eq!(ticks, expected, "eviction must keep the newest window");
        for (id, _, row) in recorder.iter() {
            prop_assert_eq!(row[0], id as f64);
        }
    }

    #[test]
    fn dump_on_failsafe_contains_the_triggering_tick(
        capacity in 2usize..64,
        trigger in 1usize..300,
    ) {
        let mut recorder = FlightRecorder::new(capacity);
        let failsafe = recorder.channel("failsafe.active");
        // Fly ticks 0..=trigger; the failsafe fires on the last one.
        for tick in 0..=trigger {
            recorder.begin_tick(tick as f64 * 1e-3);
            recorder.set(failsafe, if tick == trigger { 1.0 } else { 0.0 });
            recorder.commit_tick();
        }
        let dump = recorder.dump_json(&DumpReason::Failsafe("battery".into()));
        let ticks = dump.get("ticks").unwrap().as_arr().unwrap();
        let last = ticks.last().expect("dump never empty after a commit");
        prop_assert_eq!(last.get("tick").unwrap().as_f64(), Some(trigger as f64));
        let flag = last.get("v").unwrap().as_arr().unwrap()[0].as_f64();
        prop_assert_eq!(flag, Some(1.0), "triggering tick carries the failsafe flag");
        // And the ticks leading up to it, oldest first, contiguous.
        for pair in ticks.windows(2) {
            let a = pair[0].get("tick").unwrap().as_f64().unwrap();
            let b = pair[1].get("tick").unwrap().as_f64().unwrap();
            prop_assert_eq!(b, a + 1.0);
        }
        // JSONL form parses line by line.
        let jsonl = recorder.dump(&DumpReason::Failsafe("battery".into()));
        for line in jsonl.lines() {
            prop_assert!(Json::parse(line).is_ok(), "bad JSONL line: {line}");
        }
    }

    #[test]
    fn nested_spans_compose_under_the_sim_clock(
        outer_head in 0.0f64..0.5,
        inner in 0.0f64..0.5,
        outer_tail in 0.0f64..0.5,
    ) {
        let clock = Clock::sim();
        let builder = TraceBuilder::new(derive_trace_id(9, 1), clock.clone());
        {
            let outer = builder.root("outer");
            clock.advance(outer_head);
            {
                let _inner = outer.child("inner", 0);
                clock.advance(inner);
            }
            clock.advance(outer_tail);
        }
        let trace = builder.finish();
        let elapsed = |name: &str| {
            let span = trace.spans.iter().find(|s| s.name == name).expect("recorded");
            span.end_s - span.start_s
        };
        let (outer_t, inner_t) = (elapsed("outer"), elapsed("inner"));
        prop_assert!((inner_t - inner).abs() < 1e-12);
        // The enclosing span contains its child plus its own work.
        prop_assert!((outer_t - (outer_head + inner + outer_tail)).abs() < 1e-12);
        prop_assert!(outer_t >= inner_t);
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let hist = Histogram::new();
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(hist.quantile(q), None);
    }
}
