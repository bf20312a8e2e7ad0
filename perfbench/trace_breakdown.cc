#include "trace_breakdown.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

std::map<std::string, SpanTotals>
spanTotals(const std::vector<betty::obs::TraceEvent>& events)
{
    using betty::obs::TraceEvent;
    std::map<int32_t, std::vector<const TraceEvent*>> lanes;
    for (const TraceEvent& event : events)
        if (event.name && std::strncmp(event.name, "pool/", 5) != 0)
            lanes[event.lane].push_back(&event);

    std::map<std::string, SpanTotals> totals;
    for (auto& [lane, spans] : lanes) {
        // Parents first: earlier start, then longer duration, then the
        // id handed out when the span opened (a parent opens first).
        std::sort(spans.begin(), spans.end(),
                  [](const TraceEvent* a, const TraceEvent* b) {
                      if (a->startUs != b->startUs)
                          return a->startUs < b->startUs;
                      if (a->durUs != b->durUs)
                          return a->durUs > b->durUs;
                      return a->id < b->id;
                  });
        std::vector<int64_t> covered_us(spans.size(), 0);
        std::vector<size_t> open;
        for (size_t i = 0; i < spans.size(); ++i) {
            const TraceEvent& span = *spans[i];
            const int64_t end = span.startUs + span.durUs;
            while (!open.empty()) {
                const TraceEvent& top = *spans[open.back()];
                if (end <= top.startUs + top.durUs)
                    break;
                open.pop_back();
            }
            if (!open.empty() &&
                std::strcmp(spans[open.back()]->name, span.name) == 0)
                continue;
            if (!open.empty())
                covered_us[open.back()] += span.durUs;
            open.push_back(i);
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            SpanTotals& total = totals[spans[i]->name];
            ++total.count;
            total.inclusiveSeconds += double(spans[i]->durUs) * 1e-6;
            total.selfSeconds +=
                double(std::max<int64_t>(
                    0, spans[i]->durUs - covered_us[i])) *
                1e-6;
        }
    }
    return totals;
}

} // namespace perfbench
