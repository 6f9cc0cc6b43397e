//! C2 fixture: hand-built RPC responses and direct cost-table access from
//! relayer code, which must go through the endpoint's lanes instead.

/// A hand-built response: bypasses lane costing entirely.
pub fn hand_built(height: u64) -> ResponseEnvelope {
    let response = RpcResponse {
        height,
        payload: Payload::Empty,
    };
    ResponseEnvelope::wrap(response)
}

/// Re-prices a request outside the lane scheduler.
pub fn reprice(profile: &RequestProfile) -> SimDuration {
    cost::service_time(profile, BATCHED_PULL_PER_ITEM)
}

// xcc-lint: allow(lane-bypass, reason = "fixture shim: canned response for a chain that never answers")
pub fn canned() -> RpcResponse {
    // xcc-lint: allow(lane-bypass, reason = "fixture shim: canned response for a chain that never answers")
    RpcResponse { height: 0, payload: Payload::Empty }
}

/// Type positions are not constructions: stays silent.
pub fn forward(response: RpcResponse) -> u64 {
    response.height
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_harnesses_may_build_responses() {
        let r = RpcResponse { height: 7, payload: Payload::Empty };
        assert_eq!(r.height, 7);
    }
}
