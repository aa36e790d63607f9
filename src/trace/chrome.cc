#include "trace/chrome.hh"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

namespace veil::trace {

namespace {

/**
 * Track id for one (vcpu, vmpl) pair. The host context is tid 0; guest
 * tracks are 1 + vcpu*4 + vmpl so every VCPU's four privilege levels
 * group together in the viewer.
 */
uint64_t
trackId(uint32_t vcpu, uint8_t vmpl)
{
    if (vcpu == kHostVcpu)
        return 0;
    return 1 + uint64_t(vcpu) * 4 + (vmpl & 3);
}

std::string
trackName(uint32_t vcpu, uint8_t vmpl)
{
    if (vcpu == kHostVcpu)
        return "hypervisor";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "vcpu%u/vmpl%u", vcpu, vmpl & 3);
    return buf;
}

void
appendEvent(std::string &out, const Event &e, bool first)
{
    char buf[256];
    uint64_t tid = trackId(e.vcpu, e.vmpl);
    if (e.kind == EventKind::Span) {
        std::snprintf(buf, sizeof(buf),
                      "%s    {\"name\": \"%s\", \"cat\": \"%s\", "
                      "\"ph\": \"X\", \"pid\": 0, \"tid\": %" PRIu64
                      ", \"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                      ", \"args\": {\"arg\": %" PRIu64 ", \"self\": %" PRIu64
                      "}}",
                      first ? "\n" : ",\n", categoryName(e.cat),
                      categoryName(e.cat), tid, e.tsc, e.dur, e.arg, e.self);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%s    {\"name\": \"%s\", \"cat\": \"%s\", "
                      "\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, "
                      "\"tid\": %" PRIu64 ", \"ts\": %" PRIu64
                      ", \"args\": {\"arg\": %" PRIu64 "}}",
                      first ? "\n" : ",\n", categoryName(e.cat),
                      categoryName(e.cat), tid, e.tsc, e.arg);
    }
    out += buf;
}

} // namespace

std::string
chromeTraceJson(const Tracer &tracer)
{
    char buf[256];
    std::string out = "{\n";
    out += "  \"displayTimeUnit\": \"ns\",\n";

    // Exact attribution block: sums reconcile with the machine TSC.
    out += "  \"veil\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"totalCycles\": %" PRIu64
                  ",\n    \"recordedEvents\": %" PRIu64
                  ",\n    \"droppedEvents\": %" PRIu64 ",\n",
                  tracer.totalCycles(), tracer.recordedEvents(),
                  tracer.droppedEvents());
    out += buf;
    out += "    \"cyclesByCategory\": {";
    bool first = true;
    for (size_t c = 0; c < kCategoryCount; ++c) {
        uint64_t cycles = tracer.cycles(static_cast<Category>(c));
        if (cycles == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "%s\n      \"%s\": %" PRIu64,
                      first ? "" : ",",
                      categoryName(static_cast<Category>(c)), cycles);
        out += buf;
        first = false;
    }
    out += first ? "}\n" : "\n    }\n";
    out += "  },\n";

    out += "  \"traceEvents\": [";

    // Track-name metadata first, for every track that has events.
    std::map<uint64_t, std::string> tracks;
    for (size_t ring = 0; ring < tracer.ringCount(); ++ring) {
        for (const Event &e : tracer.ringEvents(ring))
            tracks.emplace(trackId(e.vcpu, e.vmpl),
                           trackName(e.vcpu, e.vmpl));
    }
    first = true;
    for (const auto &[tid, name] : tracks) {
        std::snprintf(buf, sizeof(buf),
                      "%s    {\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 0, \"tid\": %" PRIu64
                      ", \"args\": {\"name\": \"%s\"}}",
                      first ? "\n" : ",\n", tid, name.c_str());
        out += buf;
        first = false;
    }

    for (size_t ring = 0; ring < tracer.ringCount(); ++ring) {
        for (const Event &e : tracer.ringEvents(ring)) {
            appendEvent(out, e, first);
            first = false;
        }
    }
    out += first ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

bool
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::string doc = chromeTraceJson(tracer);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = written == doc.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace veil::trace
