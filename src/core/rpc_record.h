/**
 * @file
 * Timing summary of one sparse-shard RPC attempt, internal to the
 * serving engine. The paper's latency attribution (Section IV-B) takes
 * the embedded portion of a request from its slowest asynchronous
 * sparse RPC; the engine fills one record per attempt and keeps only the
 * bounding one per request, from which RequestStats' emb_* fields are
 * read. Records are not retained after the request completes.
 */
#pragma once

#include "sim/time.h"

namespace dri::core {

struct RpcRecord
{
    int shard_id = 0;
    int net_id = 0;
    int batch_id = 0;

    sim::SimTime dispatched = 0;     //!< client issued the request
    sim::SimTime completed = 0;      //!< response visible at main shard

    // Remote-side components (CPU unless noted).
    sim::Duration remote_queue_ns = 0;   //!< wall: waiting for a core
    sim::Duration remote_serde_ns = 0;
    sim::Duration remote_service_ns = 0;
    sim::Duration remote_net_overhead_ns = 0;
    sim::Duration remote_sparse_op_ns = 0;

    /** Total outstanding time observed at the main shard. */
    sim::Duration outstanding() const { return completed - dispatched; }

    /** E2E service time on the sparse shard (queue + CPU components). */
    sim::Duration remoteE2e() const
    {
        return remote_queue_ns + remote_serde_ns + remote_service_ns +
               remote_net_overhead_ns + remote_sparse_op_ns;
    }

    /**
     * Network latency, measured exactly as the paper does: outstanding
     * request time at the main shard minus E2E time at the sparse shard
     * (absorbs clock skew between servers).
     */
    sim::Duration networkLatency() const
    {
        return outstanding() - remoteE2e();
    }
};

} // namespace dri::core
