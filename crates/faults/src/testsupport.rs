//! The probe the racy scenarios' unit tests share: one trial of a
//! scenario pinned to one exploration axis, under the spec that hides
//! the axis's races or under the scenario's own spec, which exposes them.

use ptest_core::{
    MemoryModelSpec, PreemptionSpec, Scenario, ScheduleSpec, TestReport, TrialEngine,
    TrialOverrides, TrialScratch,
};

/// A spec on one exploration axis.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AxisSpec {
    Schedule(ScheduleSpec),
    Memory(MemoryModelSpec),
    Preemption(PreemptionSpec),
}

/// How the tests of one scenario family probe its axis.
pub(crate) struct Probe {
    /// The spec under which the family's races cannot happen.
    pub(crate) control: AxisSpec,
    /// `(pattern seeds, axis seeds)` searched for a manifestation.
    pub(crate) grid: (u64, u64),
    pub(crate) manifested: fn(&TestReport) -> bool,
}

impl Probe {
    /// Runs one trial of `scenario` at pattern seed `seed` and seed
    /// `axis_seed` on the probed axis (every other seed is `seed`),
    /// under the control spec or the scenario's own.
    pub(crate) fn run(
        &self,
        scenario: &dyn Scenario,
        control: bool,
        seed: u64,
        axis_seed: u64,
    ) -> TestReport {
        let mut seeds = [seed; 3];
        let mut overrides = TrialOverrides::default();
        match self.control {
            AxisSpec::Schedule(spec) => {
                seeds[0] = axis_seed;
                overrides.schedule = control.then_some(spec);
            }
            AxisSpec::Memory(spec) => {
                seeds[1] = axis_seed;
                overrides.memory = control.then_some(spec);
            }
            AxisSpec::Preemption(spec) => {
                seeds[2] = axis_seed;
                overrides.preemption = control.then_some(spec);
            }
        }
        overrides.irq_seed = Some(seeds[2]);
        let report = TrialEngine::new(scenario.base_config())
            .expect("valid scenario config")
            .run_scenario_trial_overridden(
                scenario,
                seed,
                seeds[0],
                seeds[1],
                overrides,
                &mut TrialScratch::new(),
            )
            .expect("trial runs");
        let recorded = [report.schedule_seed, report.memory_seed, report.irq_seed];
        assert_eq!(recorded, seeds, "the report records the quadruple");
        report
    }

    /// The first `(seed, axis_seed)` of the grid at which `scenario`
    /// manifests under its own spec.
    pub(crate) fn find_manifestation(&self, scenario: &dyn Scenario) -> Option<(u64, u64)> {
        let (seeds, axis_seeds) = self.grid;
        (0..seeds)
            .flat_map(|seed| (0..axis_seeds).map(move |axis_seed| (seed, axis_seed)))
            .find(|&(seed, axis_seed)| {
                (self.manifested)(&self.run(scenario, false, seed, axis_seed))
            })
    }

    /// Asserts `scenario` never manifests under the control spec, across
    /// pattern seeds (the axis seed is inert there).
    pub(crate) fn assert_invisible(&self, scenario: &dyn Scenario) {
        for seed in 0..6 {
            let report = self.run(scenario, true, seed, seed ^ 0xABCD);
            let summary = report.summary();
            assert!(!(self.manifested)(&report), "seed {seed}: {summary}");
        }
    }

    /// Asserts `scenario` manifests somewhere in the grid and replays
    /// byte-identically from the seeds that found it, which it returns.
    pub(crate) fn assert_manifests_and_replays(&self, scenario: &dyn Scenario) -> (u64, u64) {
        let (seed, axis_seed) = self
            .find_manifestation(scenario)
            .expect("some seed pair in the grid must expose the race");
        let a = self.run(scenario, false, seed, axis_seed);
        let b = self.run(scenario, false, seed, axis_seed);
        assert!((self.manifested)(&a));
        assert_eq!(a.machine_summary(), b.machine_summary(), "replay is exact");
        (seed, axis_seed)
    }
}
