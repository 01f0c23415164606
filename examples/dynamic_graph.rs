//! Dynamic graph on device memory (the paper's §4.4.3/§4.4.4 scenario):
//! initialise a graph whose adjacencies live in manager-allocated memory,
//! then stream in edge insertions that force power-of-two re-allocations.
//!
//! ```text
//! cargo run --release --example dynamic_graph
//! cargo run --release --example dynamic_graph -- coAuthorsCiteseer
//! ```

use gpumemsurvey::bench::registry::ManagerKind;
use gpumemsurvey::dyn_graph::{self, DynGraph};
use gpumemsurvey::prelude::*;

fn main() {
    let graph_name = std::env::args().nth(1).unwrap_or_else(|| "fe_body".to_string());
    let device = Device::new(DeviceSpec::titan_v());
    let csr = dyn_graph::generate(&graph_name, 16, 42);
    println!(
        "graph {}: {} vertices, {} edges (avg degree {:.1})",
        csr.name,
        csr.vertices(),
        csr.edges(),
        csr.avg_degree()
    );

    for kind in [ManagerKind::ScatterAlloc, ManagerKind::OuroVLP, ManagerKind::Halloc] {
        let alloc = kind.builder().heap(1 << 30).sms(device.spec().num_sms).build();
        let (graph, t_init) = DynGraph::init(alloc.as_ref(), &device, &csr);
        assert_eq!(graph.failures(), 0, "{}: init failed", kind.label());

        // Focused updates: heavy churn on few source vertices.
        let edges = dyn_graph::focused_edges(csr.vertices(), 50_000, 20, 7);
        graph.insert_edges(&device, &edges);
        assert_eq!(graph.failures(), 0, "{}: updates failed", kind.label());

        // Validate: every edge is stored.
        assert_eq!(graph.total_edges(), csr.edges() + edges.len() as u64);
        graph.destroy(&device);

        println!(
            "{:<16} init {:>9.4} ms   +50k edges stored",
            kind.label(),
            t_init.as_secs_f64() * 1e3
        );
    }
}
