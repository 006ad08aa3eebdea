/**
 * @file
 * ASCII rendering of one request's distributed trace, reproducing the
 * visualization of the paper's Fig. 3: shards as horizontal slices
 * (main shard on top), spans as proportional bars over a shared
 * simulated-time axis.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"

namespace dri::obs {

/**
 * Timeline glyph of a span kind, or '\0' for the container kinds
 * (request, net phase, batch, RPC op and attempt) that only group other
 * spans and are not drawn. Every drawn kind has its own glyph.
 */
char spanGlyph(SpanKind kind);

/**
 * Render the closed spans of @p request_id as a timeline: one lane per
 * (shard, net, batch), main shard first, then sparse shards in id
 * order, so concurrent batches and fan-out targets are visible.
 *
 * @param spans      spans from one SpanTracer (flat mode).
 * @param width      character width of the time axis.
 */
std::string renderRequestTrace(const std::vector<SpanRecord> &spans,
                               std::uint64_t request_id,
                               std::size_t width = 100);

} // namespace dri::obs
