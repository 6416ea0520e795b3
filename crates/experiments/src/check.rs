//! Invariants every finished run must satisfy, whatever its scenario.
//!
//! `mp2p run` and `mp2p matrix` apply [`check_report`] to every report
//! they produce and exit 1 on a violation; the tier-1 fault-preset grid
//! (`tests/failure_injection.rs`) applies it to every preset × strategy.

use mp2p_rpcc::RunReport;

/// Checks the report's exact accounting and fault-schedule integrity.
/// Returns one message per violated invariant (empty = clean):
///
/// * every issued query was served or failed — faults never leak or
///   double-count one — and the same for writes;
/// * when a fault plan was active, every partition that opened healed
///   and every crashed node recovered within the run.
pub fn check_report(report: &RunReport) -> Vec<String> {
    let mut violations = Vec::new();
    if report.queries_issued != report.queries_served() + report.queries_failed {
        violations.push(format!(
            "query accounting leak: issued {} != served {} + failed {}",
            report.queries_issued,
            report.queries_served(),
            report.queries_failed
        ));
    }
    if report.writes_issued != report.writes_completed() + report.writes_failed {
        violations.push(format!(
            "write accounting leak: issued {} != acked {} + failed {}",
            report.writes_issued,
            report.writes_completed(),
            report.writes_failed
        ));
    }
    if report.fault_plan.is_some() {
        let faults = &report.faults;
        if faults.partitions_started != faults.partitions_healed {
            violations.push(format!(
                "{} partitions opened but {} healed",
                faults.partitions_started, faults.partitions_healed
            ));
        }
        if faults.crashes != faults.recoveries {
            violations.push(format!(
                "{} crashes but {} recoveries",
                faults.crashes, faults.recoveries
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp2p_net::FaultPlan;
    use mp2p_rpcc::{World, WorldConfig};
    use mp2p_sim::SimDuration;

    #[test]
    fn each_broken_invariant_is_reported_on_its_own() {
        let mut cfg = WorldConfig::small_test(3);
        cfg.sim_time = SimDuration::from_mins(6);
        cfg.i_write = Some(SimDuration::from_secs(60));
        cfg.faults = FaultPlan::preset("hostile", cfg.sim_time).expect("known preset");
        let clean = World::new(cfg).run();
        assert!(clean.writes_issued > 0 && clean.faults.crashes > 0);
        assert_eq!(check_report(&clean), Vec::<String>::new());

        type Break = fn(&mut RunReport);
        let cases: [(Break, &str); 4] = [
            (|r| r.queries_issued += 1, "query accounting leak"),
            (|r| r.writes_failed += 1, "write accounting leak"),
            (|r| r.faults.partitions_healed -= 1, "partitions opened"),
            (|r| r.faults.recoveries += 1, "crashes but"),
        ];
        for (break_it, needle) in cases {
            let mut broken = clean.clone();
            break_it(&mut broken);
            let violations = check_report(&broken);
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert!(violations[0].contains(needle), "{violations:?}");
        }

        // The schedule checks only bind while a plan is active.
        let mut unplanned = clean.clone();
        unplanned.fault_plan = None;
        unplanned.faults.recoveries += 1;
        assert!(check_report(&unplanned).is_empty());
    }
}
