//! One simulated RPC: request transfer, server service, response
//! transfer — the shape of every client exchange in both workloads.

use blobseer_simnet::{Nanos, NodeId, Stage, TransferSpec};

use crate::params::SimParams;

/// A client → server round trip, named by its message sizes and
/// path costs. The client's send cost
/// ([`SimParams::client_send_overhead`]) and the server's
/// [`SimParams::rpc_service`] are the same for every RPC.
pub(crate) struct Rpc {
    /// Request size.
    pub req_bytes: u64,
    /// The server's cost to take the request in (a store path).
    pub server_in: Nanos,
    /// Response size.
    pub resp_bytes: u64,
    /// The server's cost to send the response (a read path).
    pub server_out: Nanos,
    /// The client's cost to take the response in.
    pub client_in: Nanos,
}

impl Rpc {
    /// A control exchange: `ctl_bytes` each way, no server path cost.
    pub fn ctl(p: &SimParams) -> Rpc {
        Rpc {
            req_bytes: p.ctl_bytes,
            server_in: 0,
            resp_bytes: p.ctl_bytes,
            server_out: 0,
            client_in: p.client_recv_ctl_overhead,
        }
    }

    /// The three stages of this RPC from `client` to `server`.
    pub fn stages(self, p: &SimParams, client: NodeId, server: NodeId) -> Vec<Stage> {
        vec![
            Stage::Transfer(TransferSpec {
                src: client,
                dst: server,
                bytes: self.req_bytes,
                src_overhead: p.client_send_overhead,
                dst_overhead: self.server_in,
            }),
            Stage::Service { node: server, duration: p.rpc_service },
            Stage::Transfer(TransferSpec {
                src: server,
                dst: client,
                bytes: self.resp_bytes,
                src_overhead: self.server_out,
                dst_overhead: self.client_in,
            }),
        ]
    }
}
