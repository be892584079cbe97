//! Traced evaluation: the engine records the `eval.size`/`eval.power`
//! leaf spans of the (untraced) `drone-dse` kernel here.

use crate::engine::EvalResult;
use drone_telemetry::trace::Span;

/// Runs `kernel` for one point and, under the point's `span`, records
/// the kernel's two stages as leaves: `eval.size` (order 0) around the
/// kernel, tagged with its feasibility, then `eval.power` (order 1) on
/// success only. The point span gets the same `feasible` tag. A kernel
/// that panics unwinds through an untagged `eval.size` leaf and leaves
/// the point span untagged. Fixed orders keep the span ids a pure
/// function of the trace id, identical at any thread count.
pub(crate) fn kernel_stages(
    span: Option<&mut Span>,
    kernel: impl FnOnce() -> EvalResult,
) -> EvalResult {
    let Some(span) = span else {
        return kernel();
    };
    let result = {
        let mut size = span.child("eval.size", 0);
        let result = kernel();
        size.tag("feasible", result.is_ok());
        result
    };
    if result.is_ok() {
        let _power = span.child("eval.power", 1);
    }
    span.tag("feasible", result.is_ok());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_components::battery::CellCount;
    use drone_dse::eval::{evaluate, DesignQuery};
    use drone_telemetry::{derive_trace_id, Clock, TraceBuilder};

    fn q450() -> DesignQuery {
        DesignQuery::new(450.0, CellCount::S3, 4000.0)
    }

    #[test]
    fn traced_evaluate_matches_untraced_and_records_leaves() {
        let builder = TraceBuilder::new(derive_trace_id(1, 1), Clock::sim());
        let traced = {
            let mut root = builder.root("test");
            kernel_stages(Some(&mut root), || evaluate(&q450())).unwrap()
        };
        assert_eq!(traced, evaluate(&q450()).unwrap());
        assert_eq!(kernel_stages(None, || evaluate(&q450())).unwrap(), traced);
        let trace = builder.finish();
        assert_eq!(trace.count_named("eval.size"), 1);
        assert_eq!(trace.count_named("eval.power"), 1);
        assert_eq!(trace.count_tagged("feasible", "true"), 0); // bool tag, not str
        assert_eq!(trace.open_at_finish, 0);
    }

    #[test]
    fn traced_evaluate_of_infeasible_point_skips_power_stage() {
        let builder = TraceBuilder::new(derive_trace_id(1, 2), Clock::sim());
        {
            let mut root = builder.root("test");
            let q = DesignQuery::new(450.0, CellCount::S3, 150.0).with_payload(800.0);
            assert!(kernel_stages(Some(&mut root), || evaluate(&q)).is_err());
        }
        let trace = builder.finish();
        assert_eq!(trace.count_named("eval.size"), 1);
        assert_eq!(trace.count_named("eval.power"), 0);
    }
}
