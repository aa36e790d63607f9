#include "common.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "base/log.hh"
#include "crypto/stats.hh"
#include "kernel/kernel.hh"
#include "trace/chrome.hh"
#include "trace/metrics.hh"
#include "veil/proto.hh"

namespace veil::bench {

namespace {

/** Collector behind jsonInit/jsonMetric/jsonFlush. */
struct JsonSink
{
    struct TableRec
    {
        std::string title;
        std::vector<std::string> columns;
        std::vector<std::vector<std::string>> rows;
    };
    struct BarRec
    {
        std::string label;
        double value;
        double max;
        std::string suffix;
    };
    struct MetricRec
    {
        std::string name;
        double value;
        std::string unit;
    };
    struct GateRec
    {
        std::string name;
        double value;
        std::string op;
        double bound;
        bool pass;
    };

    bool enabled = false;
    bool flushed = false;
    std::string path;
    std::string tracePath;
    std::string bench;
    std::vector<TableRec> tables;
    std::vector<BarRec> bars;
    std::vector<MetricRec> metrics;
    std::set<std::string> metricNames;
    std::vector<GateRec> gates;
};

JsonSink &
jsonSink()
{
    static JsonSink s;
    return s;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += fmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
jsonAppendNumber(std::string &out, double v)
{
    // Whole numbers print without a fraction so counters stay integral.
    if (v == static_cast<double>(static_cast<long long>(v)))
        out += fmt("%lld", static_cast<long long>(v));
    else
        out += fmt("%.6g", v);
}

/** Gate values and bounds: integral ones print without a fraction. */
std::string
numStr(double v)
{
    std::string out;
    jsonAppendNumber(out, v);
    return out;
}

} // namespace

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<size_t> widths(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i)
        widths[i] = columns_[i].size();
    for (const auto &row : rows_) {
        for (size_t i = 0; i < row.size() && i < widths.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    JsonSink &sink = jsonSink();
    if (sink.enabled)
        sink.tables.push_back({title_, columns_, rows_});

    std::printf("\n%s\n", title_.c_str());
    size_t total = 0;
    for (size_t i = 0; i < columns_.size(); ++i) {
        std::printf("%-*s  ", int(widths[i]), columns_[i].c_str());
        total += widths[i] + 2;
    }
    std::printf("\n");
    for (size_t i = 0; i < total; ++i)
        std::printf("-");
    std::printf("\n");
    for (const auto &row : rows_) {
        for (size_t i = 0; i < row.size() && i < widths.size(); ++i)
            std::printf("%-*s  ", int(widths[i]), row[i].c_str());
        std::printf("\n");
    }
}

void
printBar(const std::string &label, double value, double max_value,
         const std::string &suffix, int width)
{
    JsonSink &sink = jsonSink();
    if (sink.enabled)
        sink.bars.push_back({label, value, max_value, suffix});

    int fill = max_value > 0
                   ? static_cast<int>(value / max_value * width + 0.5)
                   : 0;
    fill = std::min(fill, width);
    std::string bar(static_cast<size_t>(fill), '#');
    std::printf("  %-12s |%-*s| %s\n", label.c_str(), width, bar.c_str(),
                suffix.c_str());
}

void
heading(const std::string &text)
{
    std::printf("\n=== %s ===\n", text.c_str());
}

void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

std::string
fmt(const char *f, ...)
{
    va_list ap;
    va_start(ap, f);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

namespace {

/**
 * Extract "--<flag> <path>" or "--<flag>=<path>" from argv, consuming
 * the tokens so downstream flag parsers (e.g. google-benchmark) never
 * see them. Returns the empty string when the flag is absent.
 */
std::string
consumePathFlag(int *argc, char **argv, const char *flag)
{
    std::string eq = std::string(flag) + "=";
    for (int i = 1; i < *argc; ++i) {
        std::string path;
        int eaten = 0;
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < *argc) {
            path = argv[i + 1];
            eaten = 2;
        } else if (std::strncmp(argv[i], eq.c_str(), eq.size()) == 0) {
            path = argv[i] + eq.size();
            eaten = 1;
        }
        if (eaten) {
            for (int j = i; j + eaten < *argc; ++j)
                argv[j] = argv[j + eaten];
            *argc -= eaten;
            return path;
        }
    }
    return {};
}

} // namespace

void
jsonInit(int *argc, char **argv, const std::string &bench_name)
{
    JsonSink &sink = jsonSink();
    sink.bench = bench_name;

    sink.path = consumePathFlag(argc, argv, "--json");
    if (sink.path.empty()) {
        if (const char *env = std::getenv("VEIL_BENCH_JSON"))
            sink.path = env;
    }

    sink.tracePath = consumePathFlag(argc, argv, "--trace");
    if (sink.tracePath.empty()) {
        if (const char *env = std::getenv("VEIL_TRACE_JSON"))
            sink.tracePath = env;
    }

    if (sink.path.empty())
        return;
    sink.enabled = true;
    std::atexit(jsonFlush);
}

void
jsonMetric(const std::string &name, double value, const std::string &unit)
{
    JsonSink &sink = jsonSink();
    if (!sink.metricNames.insert(name).second)
        panic("bench: JSON metric recorded twice: " + name);
    if (sink.enabled)
        sink.metrics.push_back({name, value, unit});
}

void
gate(const std::string &name, double value, const char *op, double bound)
{
    std::string o = op;
    bool pass;
    if (o == ">=")
        pass = value >= bound;
    else if (o == ">")
        pass = value > bound;
    else if (o == "==")
        pass = value == bound;
    else if (o == "<")
        pass = value < bound;
    else if (o == "<=")
        pass = value <= bound;
    else
        panic("bench: unknown gate op '" + o + "' for " + name);
    jsonSink().gates.push_back({name, value, o, bound, pass});
}

int
gateFinish()
{
    JsonSink &sink = jsonSink();
    if (sink.gates.empty())
        return 0;
    int failures = 0;
    Table t("Gates", {"Gate", "Value", "Op", "Bound", "Result"});
    for (const auto &g : sink.gates) {
        t.addRow({g.name, numStr(g.value), g.op, numStr(g.bound),
                  g.pass ? "pass" : "FAIL"});
        failures += !g.pass;
    }
    t.print();
    jsonMetric("gate_failures", failures);
    return failures == 0 ? 0 : 1;
}

void
jsonFlush()
{
    JsonSink &sink = jsonSink();
    if (!sink.enabled || sink.flushed)
        return;
    sink.flushed = true;

    std::string out = "{\n";
    out += fmt("  \"bench\": \"%s\",\n", jsonEscape(sink.bench).c_str());

    out += "  \"tables\": [";
    for (size_t t = 0; t < sink.tables.size(); ++t) {
        const auto &tab = sink.tables[t];
        out += t ? ",\n    {" : "\n    {";
        out += fmt("\"title\": \"%s\", \"columns\": [",
                   jsonEscape(tab.title).c_str());
        for (size_t c = 0; c < tab.columns.size(); ++c)
            out += fmt("%s\"%s\"", c ? ", " : "",
                       jsonEscape(tab.columns[c]).c_str());
        out += "], \"rows\": [";
        for (size_t r = 0; r < tab.rows.size(); ++r) {
            out += r ? ", [" : "[";
            for (size_t c = 0; c < tab.rows[r].size(); ++c)
                out += fmt("%s\"%s\"", c ? ", " : "",
                           jsonEscape(tab.rows[r][c]).c_str());
            out += "]";
        }
        out += "]}";
    }
    out += sink.tables.empty() ? "],\n" : "\n  ],\n";

    out += "  \"bars\": [";
    for (size_t b = 0; b < sink.bars.size(); ++b) {
        const auto &bar = sink.bars[b];
        out += b ? ",\n    {" : "\n    {";
        out += fmt("\"label\": \"%s\", \"value\": ",
                   jsonEscape(bar.label).c_str());
        jsonAppendNumber(out, bar.value);
        out += ", \"max\": ";
        jsonAppendNumber(out, bar.max);
        out += fmt(", \"suffix\": \"%s\"}", jsonEscape(bar.suffix).c_str());
    }
    out += sink.bars.empty() ? "],\n" : "\n  ],\n";

    out += "  \"metrics\": [";
    for (size_t m = 0; m < sink.metrics.size(); ++m) {
        const auto &met = sink.metrics[m];
        out += m ? ",\n    {" : "\n    {";
        out += fmt("\"name\": \"%s\", \"value\": ",
                   jsonEscape(met.name).c_str());
        jsonAppendNumber(out, met.value);
        out += fmt(", \"unit\": \"%s\"}", jsonEscape(met.unit).c_str());
    }
    out += sink.metrics.empty() ? "],\n" : "\n  ],\n";

    out += "  \"gates\": [";
    for (size_t g = 0; g < sink.gates.size(); ++g) {
        const auto &gt = sink.gates[g];
        out += g ? ",\n    {" : "\n    {";
        out += fmt("\"name\": \"%s\", \"value\": ",
                   jsonEscape(gt.name).c_str());
        jsonAppendNumber(out, gt.value);
        out += fmt(", \"op\": \"%s\", \"bound\": ", gt.op.c_str());
        jsonAppendNumber(out, gt.bound);
        out += fmt(", \"pass\": %s}", gt.pass ? "true" : "false");
    }
    out += sink.gates.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";

    if (std::FILE *f = std::fopen(sink.path.c_str(), "w")) {
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
    } else {
        std::fprintf(stderr, "bench: cannot write JSON to %s\n",
                     sink.path.c_str());
    }
}

bool
flagConsume(int *argc, char **argv, const char *flag)
{
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        for (int j = i; j + 1 < *argc; ++j)
            argv[j] = argv[j + 1];
        --*argc;
        return true;
    }
    return false;
}

double
overheadPct(double value, double base)
{
    if (base <= 0)
        return 0;
    return (value - base) / base * 100.0;
}

namespace {

/** Counter registry for one machine: hardware events + crypto work. */
trace::MetricsRegistry
vmStatsRegistry(const snp::Machine &m)
{
    const snp::MachineStats &s = m.stats();
    const crypto::CryptoStats &c = crypto::cryptoStats();
    trace::MetricsRegistry reg;
    reg.addCounter("vm.entries", s.entries);
    reg.addCounter("vm.nonAutomaticExits", s.nonAutomaticExits);
    reg.addCounter("vm.automaticExits", s.automaticExits);
    reg.addCounter("vm.timerInterrupts", s.timerInterrupts);
    reg.addCounter("vm.rmpadjusts", s.rmpadjusts);
    reg.addCounter("vm.pvalidates", s.pvalidates);
    reg.addCounter("vm.pvalidates2m", s.pvalidates2m);
    reg.addCounter("vm.rmp.splits", m.rmp().splits());
    reg.addCounter("vm.rmp.promotes", m.rmp().promotes());
    reg.addCounter("vm.psc.batches", s.pscBatches);
    reg.addCounter("vm.psc.batchedPages", s.pscBatchedPages);
    if (m.multicore())
        reg.addCounter("vm.exclusiveEpochs", m.exclusiveEpochs());
    reg.addCounter("crypto.aesKeySchedules", c.aesKeySchedules);
    reg.addCounter("crypto.hmacKeyInits", c.hmacKeyInits);
    reg.addCounter("crypto.sha256Blocks", c.sha256Blocks);
    return reg;
}

/** Print a registry's counters as a table and mirror them to --json. */
void
printRegistry(const trace::MetricsRegistry &reg, const std::string &title,
              const std::string &json_prefix)
{
    Table t(title, {"Counter", "Count"});
    for (const auto &met : reg.counters()) {
        t.addRow({met.name, fmt("%llu", (unsigned long long)met.value)});
        jsonMetric(json_prefix + met.name, double(met.value), met.unit);
    }
    t.print();
}

} // namespace

void
printVmStats(const snp::Machine &m, const std::string &json_prefix)
{
    printRegistry(vmStatsRegistry(m), "Machine hardware-event counters",
                  json_prefix);
}

uint64_t
opRingSwitchesSaved(const kern::KernelStats &s)
{
    return s.opSubmitted > s.opDoorbells ? 2 * (s.opSubmitted - s.opDoorbells)
                                         : 0;
}

void
printVmStats(const snp::Machine &m, const kern::Kernel &k,
             const std::string &json_prefix)
{
    printVmStats(m, json_prefix);
    const kern::KernelStats &s = k.stats();

    trace::MetricsRegistry reg;
    for (size_t i = 0; i < core::kVeilOpCount; ++i) {
        if (s.veilOpCalls[i] == 0)
            continue;
        reg.addCounter(std::string("kernel.veilops.") +
                           core::veilOpName(static_cast<core::VeilOp>(i)),
                       s.veilOpCalls[i]);
    }
    reg.addCounter("kernel.opring.submitted", s.opSubmitted);
    reg.addCounter("kernel.opring.doorbells", s.opDoorbells);
    reg.addCounter("kernel.opring.doorbellRetries", s.opDoorbellRetries);
    reg.addCounter("kernel.opring.syncFallbacks", s.opSyncFallbacks);
    reg.addCounter("kernel.opring.completions", s.opCompletions);
    reg.addCounter("kernel.opring.cplErrors", s.opCplErrors);
    reg.addCounter("kernel.opring.cplResyncs", s.opCplResyncs);
    reg.addCounter("kernel.opring.flushSize", s.opFlushSize);
    reg.addCounter("kernel.opring.flushDeadline", s.opFlushDeadline);
    reg.addCounter("kernel.opring.flushBarrier", s.opFlushBarrier);
    reg.addCounter("kernel.opring.maxDepth", s.opMaxDepth);
    reg.addCounter("kernel.opring.switchesSaved", opRingSwitchesSaved(s));
    // Physical-frame pressure: live footprint, lifetime peak, and the
    // budget ceiling (fleet benches gate eviction behaviour on these).
    reg.addCounter("vm.frames.inUse", k.frames().inUse());
    reg.addCounter("vm.frames.highWater", k.frames().highWater());
    reg.addCounter("vm.frames.total", k.frames().totalFrames());
    printRegistry(reg, "Kernel VeilOp counters", json_prefix);
}

void
traceFinish(const snp::Machine &m)
{
    const std::string &path = jsonSink().tracePath;
    if (path.empty())
        return;

    const trace::Tracer &tr = m.tracer();
    if (!tr.enabled()) {
        note("trace: VeilTrace disabled; no trace written");
        return;
    }

    trace::MetricsRegistry reg;
    reg.addTracer(tr);
    Table t("Simulated cycles by category", {"Category", "Cycles", "Share"});
    uint64_t total = tr.totalCycles();
    uint64_t category_sum = 0;
    for (const auto &met : reg.counters()) {
        if (met.name.rfind("cycles.", 0) != 0 || met.name == "cycles.total")
            continue;
        category_sum += met.value;
        t.addRow({met.name.substr(7),
                  fmt("%llu", (unsigned long long)met.value),
                  fmt("%5.1f%%",
                      total ? 100.0 * double(met.value) / double(total) : 0)});
        jsonMetric(met.name, double(met.value), "cycles");
    }
    t.print();
    note(fmt("total: %llu cycles, %llu events recorded, %llu dropped",
             (unsigned long long)total,
             (unsigned long long)tr.recordedEvents(),
             (unsigned long long)tr.droppedEvents()));
    jsonMetric("cycles.total", double(total), "cycles");
    jsonMetric("trace.events", double(tr.recordedEvents()));
    jsonMetric("trace.dropped", double(tr.droppedEvents()));
    gate("trace.cycles_by_category_sum", double(category_sum), "==",
         double(total));
    gate("trace.events", double(tr.recordedEvents()), ">", 0);

    if (trace::writeChromeTrace(tr, path))
        note(fmt("trace: wrote Chrome trace to %s", path.c_str()));
    else
        std::fprintf(stderr, "bench: cannot write trace to %s\n",
                     path.c_str());
}

sdk::VmConfig
veilConfig(size_t mem_mb)
{
    LogConfig::setThreshold(LogLevel::Warn);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = mem_mb * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    cfg.veilEnabled = true;
    return cfg;
}

sdk::VmConfig
nativeConfig(size_t mem_mb)
{
    sdk::VmConfig cfg = veilConfig(mem_mb);
    cfg.veilEnabled = false;
    return cfg;
}

} // namespace veil::bench
