/**
 * @file
 * Per-span self time over a trace snapshot, for the benchmark's traced
 * run.
 */
#ifndef PERFBENCH_TRACE_BREAKDOWN_H
#define PERFBENCH_TRACE_BREAKDOWN_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/** Totals of every span that carries one name. */
struct SpanTotals
{
    int64_t count = 0;
    /** Summed span durations, seconds. */
    double inclusiveSeconds = 0.0;
    /** Summed durations minus the parts their child spans cover. */
    double selfSeconds = 0.0;
};

/**
 * Self time of every span, summed by span name.
 *
 * A span's children are the spans recorded on the same lane that lie
 * wholly inside it. Thread-pool bookkeeping spans ("pool/...") are
 * transparent: they are dropped, so the work inside them nests into
 * the enclosing span. A span never counts as the child of a span with
 * the same name: a simulated device's lane is shared by several pool
 * threads, whose identical leaf spans can overlap in time.
 */
std::map<std::string, SpanTotals> spanTotals(
    const std::vector<betty::obs::TraceEvent>& events);

} // namespace perfbench

#endif // PERFBENCH_TRACE_BREAKDOWN_H
