//! Workload abstraction and the measurement protocol used by MBPTA.

use crate::machine::Machine;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::parallel::par_map_indexed;
use tscache_core::prng::{mix64, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_telemetry::{Event, FlushScope, RecorderHandle};

/// A program the machine can execute.
pub trait Workload {
    /// Human-readable workload name.
    fn name(&self) -> &str;

    /// Executes one job of the workload on `machine`, issuing fetches,
    /// loads, stores and ALU batches.
    fn run(&mut self, machine: &mut Machine);
}

/// Options for [`collect_execution_times`].
///
/// Every run draws a fresh placement seed (MBPTA's "new random cache
/// layout on every program run", §2.1) and then flushes the caches
/// (the paper flushes at seed-change boundaries for consistency, §5).
#[derive(Debug, Clone, Copy)]
pub struct MeasurementProtocol {
    /// Number of runs (jobs) to measure.
    pub runs: u32,
    /// Base seed for the per-run placement-seed stream.
    pub rng_seed: u64,
    /// Hierarchy depth of the measured platform.
    pub depth: HierarchyDepth,
    /// When set, the machine runs with enemy co-runner cores on a
    /// shared bus (`Machine::attach_standard_enemies`), so the
    /// collected times carry contention — the solo-vs-contended pWCET
    /// experiment's knob.
    pub contention: Option<ContentionConfig>,
    /// When set, the platform's last cache level is *shared* between
    /// the measured core and any co-runners
    /// (`Machine::from_setup_shared`): co-runner traffic then perturbs
    /// the measured core's shared-level contents, not just its bus
    /// timing — the shared-vs-private pWCET experiment's knob.
    pub shared_llc: bool,
    /// Defense-zoo policy armed on the measured platform — the knob
    /// behind the MBPTA-compliance half of each defense's dual verdict
    /// (does the defense keep execution times i.i.d.-analyzable?).
    /// Rotation defenses need `shared_llc` (validated).
    pub defense: DefenseKind,
}

impl MeasurementProtocol {
    /// Validates the protocol ([`collect_execution_times`] runs it
    /// first), so campaign executors see a bad spec as a
    /// [`ConfigError`] (never retried) instead of a worker thread
    /// panicking mid-campaign.
    ///
    /// # Examples
    ///
    /// ```
    /// use tscache_sim::workload::MeasurementProtocol;
    ///
    /// assert!(MeasurementProtocol::default().validate().is_ok());
    /// let bad = MeasurementProtocol { runs: 0, ..Default::default() };
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.runs == 0 {
            return Err(ConfigError::incompatible("measurement protocol needs runs > 0"));
        }
        self.defense.validate_platform(self.shared_llc)
    }
}

impl Default for MeasurementProtocol {
    fn default() -> Self {
        MeasurementProtocol {
            runs: 1000,
            rng_seed: 0x4d42_5054,
            depth: HierarchyDepth::TwoLevel,
            contention: None,
            shared_llc: false,
            defense: DefenseKind::Off,
        }
    }
}

/// Builds the per-run machine of the measurement protocol: setup at
/// the protocol's depth, with enemy cores attached when the protocol
/// is contended. `machine_seed` drives the hierarchy RNG; the enemy
/// derivation mixes it further, so solo and contended runs share per-
/// run placement seeds (contention can only *add* cycles run by run).
fn protocol_machine(
    setup: SetupKind,
    protocol: &MeasurementProtocol,
    machine_seed: u64,
) -> Machine {
    let setup = protocol.defense.effective_setup(setup);
    let mut machine = if protocol.shared_llc {
        Machine::from_setup_shared(setup, protocol.depth, SystemConfig, machine_seed)
    } else {
        Machine::from_setup_depth(setup, protocol.depth, machine_seed)
    };
    machine.apply_defense(protocol.defense);
    if let Some(con) = &protocol.contention {
        machine.attach_standard_enemies(setup, protocol.depth, con, mix64(machine_seed ^ 0xe8e));
    }
    machine
}

/// Collects one execution time per run of `workload` on a machine built
/// for `setup`, following the MBPTA measurement protocol (paper Fig. 1
/// left: run on the target platform, record end-to-end times).
///
/// Returns cycle counts, one per run. An optional telemetry `recorder`
/// is attached to the per-run machine. It is observer-only — the
/// returned times are bit-identical with and without one — and
/// additionally receives a [`FlushScope::Measurement`] cache-flush
/// marker at each run's flush boundary, stamped with the cumulative
/// cycle total so the runs tile the trace timeline end to end.
///
/// # Errors
///
/// [`ConfigError`] when [`MeasurementProtocol::validate`] rejects
/// `protocol`.
///
/// # Examples
///
/// ```
/// use tscache_core::setup::SetupKind;
/// use tscache_sim::layout::Layout;
/// use tscache_sim::synthetic::ArraySweep;
/// use tscache_sim::workload::{collect_execution_times, MeasurementProtocol};
///
/// let mut layout = Layout::new(0x10_000);
/// let mut sweep = ArraySweep::standard(&mut layout);
/// let protocol = MeasurementProtocol { runs: 10, ..Default::default() };
/// let times = collect_execution_times(SetupKind::Mbpta, &mut sweep, &protocol, None)?;
/// assert_eq!(times.len(), 10);
/// # Ok::<(), tscache_core::error::ConfigError>(())
/// ```
pub fn collect_execution_times(
    setup: SetupKind,
    workload: &mut dyn Workload,
    protocol: &MeasurementProtocol,
    recorder: Option<&RecorderHandle>,
) -> Result<Vec<u64>, ConfigError> {
    protocol.validate()?;
    let mut machine = protocol_machine(setup, protocol, protocol.rng_seed);
    if let Some(rec) = recorder {
        machine.set_recorder(rec.clone());
    }
    let pid = ProcessId::new(1);
    machine.set_process(pid);
    let mut rng = SplitMix64::new(protocol.rng_seed ^ 0x6d65_6173);
    let mut times = Vec::with_capacity(protocol.runs as usize);
    let mut elapsed = 0u64;
    for _ in 0..protocol.runs {
        machine.set_process_seed(pid, Seed::random(&mut rng));
        machine.flush_caches();
        if let Some(rec) = recorder {
            rec.borrow_mut().record(elapsed, Event::CacheFlush { scope: FlushScope::Measurement });
        }
        machine.reset_counters();
        workload.run(&mut machine);
        times.push(machine.cycles());
        elapsed += machine.cycles();
    }
    Ok(times)
}

/// Parallel variant of [`collect_execution_times`]: every run reseeds
/// and flushes, so runs are independent and can be reordered across
/// threads.
///
/// Runs fan out over worker threads via
/// [`tscache_core::parallel::par_map_indexed`]; each run builds its own
/// machine and workload (`make_workload` is called once per run) and
/// derives its placement seed purely from `(protocol.rng_seed, run)`,
/// so the returned times are **bit-identical for every thread count**
/// — `RAYON_NUM_THREADS=1` and the machine default agree exactly.
///
/// Note the per-run seed derivation differs from the sequential
/// function's single RNG stream, so the two functions return different
/// (equally valid) samples of the same distribution.
///
/// # Errors
///
/// [`ConfigError`] when [`MeasurementProtocol::validate`] rejects
/// `protocol`.
pub fn collect_execution_times_par<W, F>(
    setup: SetupKind,
    protocol: &MeasurementProtocol,
    make_workload: F,
) -> Result<Vec<u64>, ConfigError>
where
    W: Workload,
    F: Fn() -> W + Sync,
{
    protocol.validate()?;
    let pid = ProcessId::new(1);
    Ok(par_map_indexed(protocol.runs as usize, |run| {
        // Derive the machine RNG (random replacement, RPCache remaps)
        // per run as well: a shared stream would correlate the runs'
        // victim selections and understate sample variance.
        let mut machine =
            protocol_machine(setup, protocol, mix64(protocol.rng_seed ^ 0x6d61_6368 ^ run as u64));
        machine.set_process(pid);
        machine.set_process_seed(
            pid,
            Seed::new(mix64(
                protocol.rng_seed ^ 0x6d65_6173 ^ (run as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )),
        );
        let mut workload = make_workload();
        machine.flush_caches();
        machine.reset_counters();
        workload.run(&mut machine);
        machine.cycles()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_core::addr::Addr;

    /// A trivial workload touching a fixed set of lines.
    struct Touch {
        addrs: Vec<u64>,
    }

    impl Workload for Touch {
        fn name(&self) -> &str {
            "touch"
        }

        fn run(&mut self, machine: &mut Machine) {
            // Two passes: the second pass's hits depend on which lines
            // survived the first, i.e. on the (random) conflict layout.
            for _ in 0..2 {
                for &a in &self.addrs {
                    machine.load(Addr::new(a));
                }
            }
            machine.execute(self.addrs.len() as u32);
        }
    }

    #[test]
    fn zero_runs_is_a_config_error() {
        let mut w = Touch { addrs: vec![0x1000] };
        let protocol = MeasurementProtocol { runs: 0, ..Default::default() };
        let err =
            collect_execution_times(SetupKind::Deterministic, &mut w, &protocol, None).unwrap_err();
        assert!(err.to_string().contains("runs > 0"), "{err}");
    }

    #[test]
    fn deterministic_setup_gives_constant_times() {
        let mut w = Touch { addrs: (0..64).map(|i| 0x1000 + i * 32).collect() };
        let protocol = MeasurementProtocol { runs: 20, ..Default::default() };
        let times = collect_execution_times(SetupKind::Deterministic, &mut w, &protocol, None)
            .expect("valid protocol");
        assert!(times.windows(2).all(|w| w[0] == w[1]), "deterministic times vary: {times:?}");
    }

    #[test]
    fn randomized_setup_gives_varying_times() {
        // Working set larger than one way with cross-page strides so
        // random layouts produce different conflict counts.
        let mut w = Touch { addrs: (0..256).map(|i| 0x1000 + i * 4096 / 8 * 3).collect() };
        let protocol = MeasurementProtocol { runs: 30, ..Default::default() };
        let times = collect_execution_times(SetupKind::Mbpta, &mut w, &protocol, None)
            .expect("valid protocol");
        let distinct: std::collections::BTreeSet<u64> = times.iter().copied().collect();
        assert!(distinct.len() > 1, "randomized times constant: {times:?}");
    }

    #[test]
    fn parallel_collection_is_thread_count_invariant() {
        // The contract is per-run purity: forcing one thread via the
        // env override must give the same vector as whatever the
        // machine default is. (On a single-core container both paths
        // may be sequential — the derivation is what's under test.)
        let make = || Touch { addrs: (0..64).map(|i| 0x1000 + i * 4096 / 8 * 3).collect() };
        let protocol = MeasurementProtocol { runs: 16, ..Default::default() };
        let a =
            collect_execution_times_par(SetupKind::Mbpta, &protocol, make).expect("valid protocol");
        let b =
            collect_execution_times_par(SetupKind::Mbpta, &protocol, make).expect("valid protocol");
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let distinct: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() > 1, "randomized times constant: {a:?}");
    }

    #[test]
    fn parallel_collection_rejects_invalid_protocols() {
        let make = || Touch { addrs: vec![0] };
        let zero_runs = MeasurementProtocol { runs: 0, ..Default::default() };
        let rotate_private =
            MeasurementProtocol { runs: 2, defense: DefenseKind::RotateCore, ..Default::default() };
        for protocol in [zero_runs, rotate_private] {
            let result = collect_execution_times_par(SetupKind::Mbpta, &protocol, make);
            assert!(result.is_err(), "{protocol:?} accepted: {result:?}");
        }
    }

    #[test]
    fn contended_times_dominate_solo_run_by_run() {
        use crate::layout::Layout;
        use crate::synthetic::ArraySweep;
        // write_back=false keeps cache outcomes identical, so every
        // contended run is the matching solo run plus bus waits.
        let solo = MeasurementProtocol { runs: 12, ..Default::default() };
        let contended = MeasurementProtocol {
            runs: 12,
            contention: Some(ContentionConfig { write_back: false, ..ContentionConfig::default() }),
            ..Default::default()
        };
        let mut a = ArraySweep::standard(&mut Layout::new(0x10_0000));
        let t_solo =
            collect_execution_times(SetupKind::Mbpta, &mut a, &solo, None).expect("valid protocol");
        let mut b = ArraySweep::standard(&mut Layout::new(0x10_0000));
        let t_cont = collect_execution_times(SetupKind::Mbpta, &mut b, &contended, None)
            .expect("valid protocol");
        assert!(t_solo.iter().zip(&t_cont).all(|(s, c)| c >= s), "contention removed cycles");
        assert!(t_solo.iter().zip(&t_cont).any(|(s, c)| c > s), "contention never added cycles");
    }

    #[test]
    fn contended_parallel_collection_is_reproducible() {
        use crate::layout::Layout;
        use crate::synthetic::FirFilter;
        let protocol = MeasurementProtocol {
            runs: 8,
            contention: Some(ContentionConfig::default()),
            ..Default::default()
        };
        let make = || FirFilter::standard(&mut Layout::new(0x10_0000));
        let a = collect_execution_times_par(SetupKind::TsCache, &protocol, make)
            .expect("valid protocol");
        let b = collect_execution_times_par(SetupKind::TsCache, &protocol, make)
            .expect("valid protocol");
        assert_eq!(a, b);
    }

    #[test]
    fn shared_llc_protocol_reproduces_and_engages_the_shared_level() {
        use crate::layout::Layout;
        use crate::synthetic::ArraySweep;
        let protocol = MeasurementProtocol {
            runs: 8,
            shared_llc: true,
            contention: Some(ContentionConfig { write_back: false, ..ContentionConfig::default() }),
            ..Default::default()
        };
        let make = || ArraySweep::standard(&mut Layout::new(0x10_0000));
        let a =
            collect_execution_times_par(SetupKind::Mbpta, &protocol, make).expect("valid protocol");
        let b =
            collect_execution_times_par(SetupKind::Mbpta, &protocol, make).expect("valid protocol");
        assert_eq!(a, b, "shared-LLC collection must be thread-count invariant");
        // Contention on a shared level may shift cache outcomes either
        // way per run; the distributional claim lives in the pWCET
        // harness. Here: the platform really is shared.
        let m = protocol_machine(SetupKind::Mbpta, &protocol, 7);
        assert!(m.shared_llc().is_some());
        assert_eq!(m.hierarchy().depth(), 1, "two-level shared platform keeps L1-only cores");
    }
}
