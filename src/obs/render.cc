#include "obs/render.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace dri::obs {

char
spanGlyph(SpanKind kind)
{
    switch (kind) {
    case SpanKind::BatchCoalesce: return 'b';
    case SpanKind::QueueWait: return 'q';
    case SpanKind::Deserialize: return 'd';
    case SpanKind::DenseBottom: return 'D';
    case SpanKind::InlineSparse: return 'S';
    case SpanKind::DenseTop: return 'T';
    case SpanKind::ClientSerde: return 'c';
    case SpanKind::ResultCacheProbe: return 'h';
    case SpanKind::EmbeddedWait: return '.';
    case SpanKind::WireOut: return '>';
    case SpanKind::RemoteQueue: return 'Q';
    case SpanKind::RemoteCompute: return 'R';
    case SpanKind::WireBack: return '<';
    case SpanKind::ResponseDeserde: return 'm';
    case SpanKind::ResponseSerialize: return 's';
    case SpanKind::Request:
    case SpanKind::NetPhase:
    case SpanKind::BatchExec:
    case SpanKind::RpcOp:
    case SpanKind::RpcAttempt:
        return '\0';
    }
    return '\0';
}

std::string
renderRequestTrace(const std::vector<SpanRecord> &spans,
                   std::uint64_t request_id, std::size_t width)
{
    std::vector<const SpanRecord *> drawn;
    for (const SpanRecord &s : spans)
        if (s.request_id == request_id && !s.open() &&
            spanGlyph(s.kind) != '\0')
            drawn.push_back(&s);
    std::ostringstream os;
    if (drawn.empty()) {
        os << "(no spans for request " << request_id
           << "; was a tracer attached?)\n";
        return os.str();
    }
    std::stable_sort(drawn.begin(), drawn.end(),
                     [](const SpanRecord *a, const SpanRecord *b) {
                         return std::tie(a->begin, a->end) <
                                std::tie(b->begin, b->end);
                     });

    sim::SimTime t0 = drawn.front()->begin;
    sim::SimTime t1 = drawn.front()->end;
    for (const SpanRecord *s : drawn)
        t1 = std::max(t1, s->end);
    const double scale = t1 > t0
                             ? static_cast<double>(width) /
                                   static_cast<double>(t1 - t0)
                             : 0.0;

    // Main shard (-1) sorts first, then sparse shards in id order.
    std::map<std::tuple<int, int, int>, std::vector<const SpanRecord *>>
        lanes;
    for (const SpanRecord *s : drawn)
        lanes[{s->shard, s->net, s->batch}].push_back(s);

    os << "request " << request_id << "  span=" << (t1 - t0) << "ns  ("
       << sim::toMillis(t1 - t0) << " ms)\nlegend:";
    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
        const auto kind = static_cast<SpanKind>(k);
        if (const char g = spanGlyph(kind))
            os << " " << g << "=" << spanKindName(kind);
    }
    os << "\n";

    int last_shard = -2;
    for (const auto &[key, lane_spans] : lanes) {
        const int shard = std::get<0>(key);
        if (shard != last_shard) {
            if (shard == kMainShard)
                os << "-- main shard " << std::string(width - 4, '-') << "\n";
            else
                os << "-- sparse shard " << shard << " "
                   << std::string(width - 8, '-') << "\n";
            last_shard = shard;
        }
        std::string lane(width, ' ');
        for (const SpanRecord *s : lane_spans) {
            auto b = static_cast<std::size_t>(
                static_cast<double>(s->begin - t0) * scale);
            auto e = static_cast<std::size_t>(
                static_cast<double>(s->end - t0) * scale);
            b = std::min(b, width - 1);
            e = std::min(std::max(e, b + 1), width);
            std::fill(lane.begin() + static_cast<std::ptrdiff_t>(b),
                      lane.begin() + static_cast<std::ptrdiff_t>(e),
                      spanGlyph(s->kind));
        }
        os << "net" << std::get<1>(key) << "/b" << std::get<2>(key) << " |"
           << lane << "|\n";
    }
    return os.str();
}

} // namespace dri::obs
