/**
 * @file
 * Chrome trace-event JSON exporter for VeilTrace. The output loads in
 * Perfetto / chrome://tracing: one track per VCPU x VMPL (plus a host
 * track), spans as complete ("X") events timed in simulated cycles, and
 * a top-level "veil" object carrying the exact cycle attribution
 * (cyclesByCategory sums to totalCycles) and ring drop counters.
 */
#ifndef VEIL_TRACE_CHROME_HH_
#define VEIL_TRACE_CHROME_HH_

#include <string>

#include "trace/trace.hh"

namespace veil::trace {

/** Render the whole trace as one Chrome trace-event JSON document. */
std::string chromeTraceJson(const Tracer &tracer);

/** Write chromeTraceJson to @p path. Returns false on I/O failure. */
bool writeChromeTrace(const Tracer &tracer, const std::string &path);

} // namespace veil::trace

#endif // VEIL_TRACE_CHROME_HH_
