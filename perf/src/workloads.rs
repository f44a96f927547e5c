//! The six workloads: names, inputs and step counts.  The one-line reasons
//! are in `BENCHMARK.json`; the longer ones in `perf/README.md`.

use crate::adapter::{DistKind, InputSpec, MeshProgram, Steps};

pub struct Workload {
    pub name: &'static str,
    pub input: InputSpec,
    /// Steps of `solve_s`.
    pub steps: Steps,
    /// Tiny inputs and step count for `--smoke` and the unit tests.
    pub smoke_input: InputSpec,
    pub smoke_steps: Steps,
}

/// Steps of `first_sweep_s`: the minimum, so planning and cold buffers are
/// all there is besides one step.
pub const FIRST: Steps = Steps {
    count: 1,
    per_phase: 1,
};

/// Steps of the run on the simulator behind `dmsim.modeled_comm_share`.
pub const MODELED: Steps = Steps {
    count: 2,
    per_phase: 1,
};

const fn sweeps(count: usize) -> Steps {
    Steps {
        count,
        per_phase: 1,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    // Body compute and the local fetch path: the halo is one grid row of
    // 1024 elements against 524 288 owned per rank.
    Workload {
        name: "grid-compute",
        input: InputSpec::Grid {
            program: MeshProgram::Jacobi,
            side: 1024,
            dist: DistKind::Block,
        },
        steps: sweeps(5),
        smoke_input: InputSpec::Grid {
            program: MeshProgram::Jacobi,
            side: 24,
            dist: DistKind::Block,
        },
        smoke_steps: sweeps(3),
    },
    // Scrambled numbering: about half of all references are nonlocal, one
    // fat packed halo per peer per sweep.
    Workload {
        name: "mesh-halo",
        input: InputSpec::Scrambled {
            program: MeshProgram::Jacobi,
            nx: 256,
            ny: 256,
            dist: DistKind::Block,
        },
        steps: sweeps(25),
        smoke_input: InputSpec::Scrambled {
            program: MeshProgram::Jacobi,
            nx: 12,
            ny: 12,
            dist: DistKind::Block,
        },
        smoke_steps: sweeps(3),
    },
    // Cyclic: no two halo elements coalesce, one range record per element.
    Workload {
        name: "mesh-cyclic",
        input: InputSpec::Scrambled {
            program: MeshProgram::Jacobi,
            nx: 96,
            ny: 96,
            dist: DistKind::Cyclic,
        },
        steps: sweeps(100),
        smoke_input: InputSpec::Scrambled {
            program: MeshProgram::Jacobi,
            nx: 12,
            ny: 12,
            dist: DistKind::Cyclic,
        },
        smoke_steps: sweeps(3),
    },
    // Latency-bound: three foralls and two tree allreduces per iteration
    // over 512 nodes per rank.
    Workload {
        name: "cg-reduce",
        input: InputSpec::Scrambled {
            program: MeshProgram::Cg,
            nx: 32,
            ny: 32,
            dist: DistKind::Block,
        },
        steps: sweeps(500),
        smoke_input: InputSpec::Scrambled {
            program: MeshProgram::Cg,
            nx: 10,
            ny: 10,
            dist: DistKind::Block,
        },
        smoke_steps: sweeps(5),
    },
    // Inspector, exchange and cache eviction on every sweep: the regime
    // where the paper's amortisation argument does not hold.
    Workload {
        name: "adapt-replan",
        input: InputSpec::Scrambled {
            program: MeshProgram::AdaptEverySweep,
            nx: 128,
            ny: 128,
            dist: DistKind::Block,
        },
        steps: sweeps(20),
        smoke_input: InputSpec::Scrambled {
            program: MeshProgram::AdaptEverySweep,
            nx: 12,
            ny: 12,
            dist: DistKind::Block,
        },
        smoke_steps: sweeps(3),
    },
    // Closed-form planning and all-to-all redistribution: each rank ships
    // half of its field at every phase change.
    Workload {
        name: "phase-redist",
        input: InputSpec::Field2d {
            rows: 768,
            cols: 768,
        },
        steps: Steps {
            count: 2,
            per_phase: 2,
        },
        smoke_input: InputSpec::Field2d { rows: 16, cols: 12 },
        smoke_steps: Steps {
            count: 2,
            per_phase: 1,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
