//! Integration: the socket RPC control plane, beyond identity.
//!
//! The acceptance contract — a run whose control plane crosses real sockets
//! finishes byte-identical to the same seed in-process at 1, 2 and 8
//! workers and under combined chaos, with every drop a physical teardown —
//! is the `socket-*` rows of `tests/identity_matrix.rs`. What stays here is
//! behaviour: pipelining across the three domain servers.

use ovnes_orchestrator::spawn_domain_control_servers;

#[test]
fn pipelining_spans_all_three_domain_servers() {
    // One SocketBus, three servers: a pipelined batch interleaving all
    // domains comes back fully, in request order, with per-endpoint served
    // counts intact.
    let (servers, mut socket) = spawn_domain_control_servers().unwrap();
    let endpoints = ["ran/health", "transport/health", "cloud/health"];
    let calls: Vec<(String, Vec<u8>)> = (0..12)
        .map(|i| (endpoints[i % 3].to_owned(), Vec::new()))
        .collect();
    let results = socket.call_pipelined(calls);
    assert_eq!(results.len(), 12);
    for (i, result) in results.iter().enumerate() {
        let resp = result.as_ref().expect("health responds");
        assert_eq!(resp.id, i as u64, "responses must land in request order");
    }
    for endpoint in endpoints {
        assert_eq!(socket.served(endpoint), 4, "{endpoint}");
    }
    for server in &servers {
        assert_eq!(server.stats().requests, 4);
    }
}
