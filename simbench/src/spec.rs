//! The benchmark's workloads: which Table III benchmarks run under
//! which schemes on which topology. `README.md` records why each was
//! chosen.

use deact::{Scheme, SystemConfig};

/// One named workload: a fixed set of simulation runs on one topology.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Nodes in the simulated system.
    pub nodes: usize,
    /// FAM modules behind the fabric.
    pub fam_modules: usize,
    /// References each core simulates.
    pub refs_per_core: u64,
    /// The runs of one round, in report order: `(benchmark, scheme)`.
    pub runs: &'static [(&'static str, Scheme)],
}

/// Cores per node in every workload.
pub const CORES_PER_NODE: usize = 4;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "translate",
        nodes: 4,
        fam_modules: 1,
        refs_per_core: 25_000,
        runs: &[
            ("sssp", Scheme::IFam),
            ("sssp", Scheme::DeactN),
            ("mcf", Scheme::IFam),
            ("mcf", Scheme::DeactN),
        ],
    },
    Spec {
        name: "stream",
        nodes: 4,
        fam_modules: 1,
        refs_per_core: 25_000,
        runs: &[
            ("sp", Scheme::IFam),
            ("sp", Scheme::DeactN),
            ("lu", Scheme::IFam),
            ("lu", Scheme::DeactN),
        ],
    },
    Spec {
        name: "scale-out",
        nodes: 16,
        fam_modules: 4,
        refs_per_core: 6_000,
        runs: &[
            ("bc", Scheme::EFam),
            ("bc", Scheme::DeactN),
            ("cc", Scheme::EFam),
            ("cc", Scheme::DeactN),
        ],
    },
];

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The configuration of one run. The seed reaches the simulator
    /// only through [`SystemConfig::with_seed`].
    pub fn config(&self, scheme: Scheme, seed: u64) -> SystemConfig {
        SystemConfig::paper_default()
            .with_scheme(scheme)
            .with_nodes(self.nodes)
            .with_cores_per_node(CORES_PER_NODE)
            .with_fam_modules(self.fam_modules)
            .with_refs_per_core(self.refs_per_core)
            .with_seed(seed)
    }

    /// References one run retires.
    pub fn refs_per_run(&self) -> u64 {
        self.refs_per_core * (self.nodes * CORES_PER_NODE) as u64
    }
}
