//! Result rows for the paper's tables.

/// Communication and caching statistics of one run, machine-wide.
///
/// `messages`/`bytes` come straight from the dmsim counters (all traffic:
/// inspector exchange, executor data, collectives); `nonlocal_refs` counts
/// the executor's binary-search fetches from the communication buffer — the
/// direct locality metric a placement optimises; `halo_elements` is the
/// number of distinct elements received per sweep (summed over processors);
/// the cache counters record how often the schedule cache spared an
/// inspector run.  The locality bench tables cite these numbers when
/// comparing block against partitioned placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommReport {
    /// Total messages sent across all processors.
    pub messages: u64,
    /// Total payload bytes sent across all processors.
    pub bytes: u64,
    /// Total nonlocal distributed-array references resolved through the
    /// communication buffer.
    pub nonlocal_refs: u64,
    /// Distinct elements received per sweep, summed over processors.
    pub halo_elements: usize,
    /// Schedule-cache hits, summed over processors.
    pub cache_hits: u64,
    /// Schedule-cache misses (inspector executions), summed over processors.
    pub cache_misses: u64,
    /// Schedule-cache evictions (capacity pressure + generation
    /// self-invalidation + explicit invalidation), summed over processors.
    pub cache_evictions: u64,
    /// Approximate bytes of cached schedules resident at the end of the
    /// run, summed over processors — the number the bounded cache keeps
    /// from growing with the length of an adaptive run.
    pub cache_resident_bytes: usize,
    /// Global typed reductions performed (`execute_reduce` calls), summed
    /// over processors — the per-iteration collective count a CG-style
    /// solver stresses.
    pub reductions: u64,
    /// Payload bytes sent for those reductions, summed over processors.
    pub reduction_bytes: u64,
    /// Measured transport bytes (frame headers + encoded payloads) that
    /// actually crossed a socket, summed over processors.  Zero for the
    /// in-process backends (dmsim models costs, native moves values over
    /// channels); only the mp backend meters real wire traffic, so this
    /// column lets a table distinguish modeled from measured volume.
    pub wire_bytes: u64,
}

impl CommReport {
    /// Format the stats as one table line (no machine column).
    pub fn to_table_line(&self) -> String {
        format!(
            "{:>10}  {:>12}  {:>14}  {:>10}  {:>10}  {:>8}  {:>8}  {:>10}  {:>8}  {:>10}  {:>10}",
            self.messages,
            self.bytes,
            self.nonlocal_refs,
            self.halo_elements,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_resident_bytes,
            self.reductions,
            self.reduction_bytes,
            self.wire_bytes
        )
    }

    /// Header matching [`CommReport::to_table_line`].
    pub fn table_header() -> String {
        format!(
            "{:>10}  {:>12}  {:>14}  {:>10}  {:>10}  {:>8}  {:>8}  {:>10}  {:>8}  {:>10}  {:>10}",
            "messages",
            "bytes",
            "nonlocal refs",
            "halo elts",
            "cache hit",
            "miss",
            "evict",
            "res bytes",
            "reduce",
            "red bytes",
            "wire bytes"
        )
    }
}

/// The per-phase simulated-time breakdown of one run, as reported in the
/// paper's tables: total time, executor time, inspector time and the
/// inspector overhead ("the inspector time divided by the total time", §4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Total simulated time of the timed region (seconds).
    pub total: f64,
    /// Simulated time spent in the executor (including communication).
    pub executor: f64,
    /// Simulated time spent in the inspector (locality checks + global
    /// exchange).
    pub inspector: f64,
}

impl PhaseBreakdown {
    /// Inspector overhead as a fraction of total time (0.0 – 1.0).
    pub fn inspector_overhead(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.inspector / self.total
        }
    }
}

/// One row of a reproduction table (one machine/processor-count/mesh-size
/// configuration), in the same shape as Figures 7–10 of the paper.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Machine model name ("NCUBE/7", "iPSC/2", …).
    pub machine: String,
    /// Number of processors used.
    pub nprocs: usize,
    /// Mesh side length (the paper's meshes are `mesh_side × mesh_side`).
    pub mesh_side: usize,
    /// Number of nodes in the mesh.
    pub mesh_nodes: usize,
    /// Number of relaxation sweeps timed.
    pub sweeps: usize,
    /// Simulated-time breakdown (machine-wide: slowest processor).
    pub times: PhaseBreakdown,
    /// Speedup relative to the one-processor executor time (only filled in
    /// by the mesh-size experiments, Figures 9 and 10).
    pub speedup: Option<f64>,
    /// Machine-wide communication, locality and schedule-cache statistics.
    pub comm: CommReport,
    /// Global squared change of the run's last convergence check, when the
    /// program performed one (identical on every rank — the value flows
    /// through the typed reduction pipeline instead of being discarded).
    pub final_change: Option<f64>,
    /// Per-phase communication breakdown, for multi-phase programs (the 2-D
    /// phase-change demo reports its vertical/horizontal sweep phases and
    /// the row↔column redistribution separately so the cost of moving the
    /// field between placements is visible next to the halo traffic it
    /// replaces).  Empty for single-phase experiments.
    pub phase_comms: Vec<(String, CommReport)>,
}

impl ExperimentRow {
    /// Format the row like the paper's tables (times in seconds, overhead in
    /// percent).
    pub fn to_table_line(&self) -> String {
        let speedup = self
            .speedup
            .map(|s| format!("  {s:8.1}"))
            .unwrap_or_default();
        format!(
            "{:>10}  {:>6}  {:>9}  {:>12.2}  {:>13.2}  {:>14.2}  {:>10.1}%{}",
            self.machine,
            self.nprocs,
            format!("{0}x{0}", self.mesh_side),
            self.times.total,
            self.times.executor,
            self.times.inspector,
            self.times.inspector_overhead() * 100.0,
            speedup
        )
    }

    /// Header matching [`ExperimentRow::to_table_line`].
    pub fn table_header(with_speedup: bool) -> String {
        let mut h = format!(
            "{:>10}  {:>6}  {:>9}  {:>12}  {:>13}  {:>14}  {:>11}",
            "machine", "procs", "mesh", "total (s)", "executor (s)", "inspector (s)", "overhead"
        );
        if with_speedup {
            h.push_str("   speedup");
        }
        h
    }

    /// Format the row's communication/locality statistics (pairs with
    /// [`ExperimentRow::comm_header`]).
    pub fn to_comm_line(&self) -> String {
        format!(
            "{:>10}  {:>6}  {}",
            self.machine,
            self.nprocs,
            self.comm.to_table_line()
        )
    }

    /// Header matching [`ExperimentRow::to_comm_line`].
    pub fn comm_header() -> String {
        format!(
            "{:>10}  {:>6}  {}",
            "machine",
            "procs",
            CommReport::table_header()
        )
    }

    /// Format the per-phase communication breakdown, one line per phase
    /// (pairs with [`ExperimentRow::phase_header`]); empty for single-phase
    /// rows.
    pub fn to_phase_lines(&self) -> Vec<String> {
        self.phase_comms
            .iter()
            .map(|(label, comm)| format!("{:>16}  {}", label, comm.to_table_line()))
            .collect()
    }

    /// Header matching [`ExperimentRow::to_phase_lines`].
    pub fn phase_header() -> String {
        format!("{:>16}  {}", "phase", CommReport::table_header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction() {
        let p = PhaseBreakdown {
            total: 10.0,
            executor: 9.0,
            inspector: 1.0,
        };
        assert!((p.inspector_overhead() - 0.1).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().inspector_overhead(), 0.0);
    }

    #[test]
    fn table_line_contains_all_fields() {
        let row = ExperimentRow {
            machine: "NCUBE/7".to_string(),
            nprocs: 16,
            mesh_side: 128,
            mesh_nodes: 16384,
            sweeps: 100,
            times: PhaseBreakdown {
                total: 38.95,
                executor: 37.88,
                inspector: 1.07,
            },
            speedup: Some(37.3),
            comm: CommReport {
                messages: 1000,
                bytes: 100000,
                nonlocal_refs: 512,
                halo_elements: 256,
                cache_hits: 99,
                cache_misses: 1,
                cache_evictions: 0,
                cache_resident_bytes: 640,
                reductions: 0,
                reduction_bytes: 0,
                wire_bytes: 0,
            },
            final_change: None,
            phase_comms: Vec::new(),
        };
        let line = row.to_table_line();
        assert!(line.contains("NCUBE/7"));
        assert!(line.contains("128x128"));
        assert!(line.contains("38.95"));
        assert!(line.contains("37.3"));
        let header = ExperimentRow::table_header(true);
        assert!(header.contains("speedup"));
        assert!(ExperimentRow::table_header(false).len() < header.len());
    }

    #[test]
    fn comm_line_cites_cache_and_locality_counters() {
        let comm = CommReport {
            messages: 42,
            bytes: 4242,
            nonlocal_refs: 77,
            halo_elements: 13,
            cache_hits: 9,
            cache_misses: 1,
            cache_evictions: 5,
            cache_resident_bytes: 888,
            reductions: 21,
            reduction_bytes: 504,
            wire_bytes: 7007,
        };
        let line = comm.to_table_line();
        for needle in [
            "42", "4242", "77", "13", "9", "1", "5", "888", "21", "504", "7007",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
        assert!(CommReport::table_header().contains("nonlocal refs"));
        assert!(CommReport::table_header().contains("evict"));
        assert!(CommReport::table_header().contains("res bytes"));
        assert!(CommReport::table_header().contains("reduce"));
        assert!(CommReport::table_header().contains("red bytes"));
        assert!(CommReport::table_header().contains("wire bytes"));
        let row = ExperimentRow {
            machine: "NCUBE/7".to_string(),
            nprocs: 8,
            mesh_side: 16,
            mesh_nodes: 256,
            sweeps: 10,
            times: PhaseBreakdown::default(),
            speedup: None,
            comm,
            final_change: Some(0.5),
            phase_comms: vec![("vertical".to_string(), comm)],
        };
        assert!(row.to_comm_line().contains("NCUBE/7"));
        assert!(ExperimentRow::comm_header().contains("cache hit"));
        // The per-phase breakdown renders one line per phase.
        let lines = row.to_phase_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("vertical"));
        assert!(lines[0].contains("4242"));
        assert!(ExperimentRow::phase_header().contains("phase"));
    }
}
