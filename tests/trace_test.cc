/**
 * @file
 * VeilTrace contract tests.
 *
 * 1. Zero-simulated-cost determinism: the golden boot + enclave-paging
 *    scenario (tests/paging_scenario.hh) must reproduce the seed TSC
 *    and MachineStats with tracing enabled and disabled at runtime
 *    (VEIL_TRACE=off).
 * 2. Attribution reconciliation: summing the per-category cycle
 *    counters equals the machine's final TSC exactly, independent of
 *    ring drops.
 * 3. Flight-recorder overflow: a tiny ring drops events, counts every
 *    drop explicitly, and never changes simulated time.
 * 4. Chrome export: the emitted trace is valid JSON with one track per
 *    (vcpu, vmpl), properly nested complete spans, and a "veil" block
 *    whose sums reconcile.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "paging_scenario.hh"
#include "trace/chrome.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace veil {
namespace {

using tests::RunRecord;
using tests::expectSeedRecord;
using tests::runPagingScenario;

/** Scoped VEIL_TRACE environment override. */
class ScopedTraceEnv
{
  public:
    explicit ScopedTraceEnv(const char *value)
    {
        if (const char *old = std::getenv("VEIL_TRACE"))
            saved_ = old;
        had_ = std::getenv("VEIL_TRACE") != nullptr;
        if (value)
            ::setenv("VEIL_TRACE", value, 1);
        else
            ::unsetenv("VEIL_TRACE");
    }
    ~ScopedTraceEnv()
    {
        if (had_)
            ::setenv("VEIL_TRACE", saved_.c_str(), 1);
        else
            ::unsetenv("VEIL_TRACE");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

// ---- Determinism: the hard zero-cost contract ----

TEST(TraceDeterminism, TracingEnabledMatchesSeedRecording)
{
    ScopedTraceEnv env(nullptr); // default: tracing on
    RunRecord r = runPagingScenario();
    expectSeedRecord(r);
}

TEST(TraceDeterminism, RuntimeOffMatchesSeedRecording)
{
    ScopedTraceEnv env("off");
    bool checked = false;
    RunRecord r = runPagingScenario(nullptr, [&](sdk::VeilVm &vm) {
        const trace::Tracer &tr = vm.machine().tracer();
        EXPECT_FALSE(tr.enabled());
        EXPECT_EQ(tr.recordedEvents(), 0u);
        EXPECT_EQ(tr.droppedEvents(), 0u);
        EXPECT_EQ(tr.totalCycles(), 0u);
        checked = true;
    });
    EXPECT_TRUE(checked);
    expectSeedRecord(r);
}

TEST(TraceDeterminism, TinyRingMatchesSeedRecording)
{
    // Ring capacity shapes only the retained event window; simulated
    // time must not notice.
    ScopedTraceEnv env(nullptr);
    RunRecord r = runPagingScenario(
        [](sdk::VmConfig &cfg) { cfg.machine.trace.ringCapacity = 64; });
    expectSeedRecord(r);
}

// ---- Attribution and ring behaviour ----

TEST(TraceAttribution, CategorySumsReconcileWithMachineTsc)
{
    ScopedTraceEnv env(nullptr);
    bool checked = false;
    runPagingScenario(nullptr, [&](sdk::VeilVm &vm) {
        const trace::Tracer &tr = vm.machine().tracer();
        ASSERT_TRUE(tr.enabled());
        EXPECT_EQ(tr.totalCycles(), vm.machine().tsc());
        uint64_t sum = 0;
        for (size_t c = 0; c < trace::kCategoryCount; ++c)
            sum += tr.cycles(static_cast<trace::Category>(c));
        EXPECT_EQ(sum, tr.totalCycles());
        EXPECT_GT(tr.recordedEvents(), 0u);

        // The scenario exercises the monitor, services, paging, and
        // RMP instructions; their attribution must be non-empty.
        EXPECT_GT(tr.cycles(trace::Category::Rmpadjust), 0u);
        EXPECT_GT(tr.cycles(trace::Category::Pvalidate), 0u);
        EXPECT_GT(tr.cycles(trace::Category::VmEnter), 0u);
        EXPECT_GT(tr.cycles(trace::Category::VmgExit), 0u);
        EXPECT_GT(tr.histogram(trace::Category::MonitorReq).count, 0u);
        EXPECT_GT(tr.histogram(trace::Category::ServiceEnc).count, 0u);

        // Metrics registry mirrors the tracer.
        trace::MetricsRegistry reg;
        reg.addTracer(tr);
        EXPECT_EQ(reg.counter("cycles.total"), tr.totalCycles());
        EXPECT_EQ(reg.counter("cycles.rmpadjust"),
                  tr.cycles(trace::Category::Rmpadjust));
        checked = true;
    });
    EXPECT_TRUE(checked);
}

TEST(TraceRing, OverflowDropsOldestAndCountsEveryEvent)
{
    ScopedTraceEnv env(nullptr);
    constexpr size_t kCap = 64;
    bool checked = false;
    runPagingScenario(
        [](sdk::VmConfig &cfg) { cfg.machine.trace.ringCapacity = kCap; },
        [&](sdk::VeilVm &vm) {
            const trace::Tracer &tr = vm.machine().tracer();
            ASSERT_TRUE(tr.enabled());
            EXPECT_EQ(tr.ringCapacity(), kCap);
            EXPECT_GT(tr.droppedEvents(), 0u);

            uint64_t kept = 0, dropped = 0;
            for (size_t i = 0; i < tr.ringCount(); ++i) {
                std::vector<trace::Event> evs = tr.ringEvents(i);
                EXPECT_LE(evs.size(), kCap);
                // Rings are ordered by record time: spans are recorded
                // at close, so completion time (tsc + dur) is monotone
                // even though a parent's start predates its children's.
                for (size_t j = 1; j < evs.size(); ++j)
                    EXPECT_GE(evs[j].tsc + evs[j].dur,
                              evs[j - 1].tsc + evs[j - 1].dur);
                kept += evs.size();
                dropped += tr.ringDropped(i);
            }
            EXPECT_EQ(dropped, tr.droppedEvents());
            EXPECT_EQ(kept + dropped, tr.recordedEvents());

            // Drops affect the timeline only: attribution still exact.
            EXPECT_EQ(tr.totalCycles(), vm.machine().tsc());
            checked = true;
        });
    EXPECT_TRUE(checked);
}

// ---- Chrome trace-event JSON export ----

/** Minimal JSON value + recursive-descent parser (test-local). */
struct JValue
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool boolean = false;
    double num = 0;
    std::string str;
    std::vector<JValue> arr;
    std::map<std::string, JValue> obj;

    const JValue *find(const std::string &key) const
    {
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    bool parse(JValue &out)
    {
        bool ok = value(out);
        ws();
        return ok && pos_ == s_.size();
    }

  private:
    void ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    bool lit(const char *word, JValue &v, JValue::Kind kind, bool b)
    {
        size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        v.kind = kind;
        v.boolean = b;
        return true;
    }
    bool string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                if (++pos_ >= s_.size())
                    return false;
                switch (s_[pos_]) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'u': pos_ += 4; out += '?'; break;
                  default: out += s_[pos_];
                }
            } else {
                out += s_[pos_];
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }
    bool value(JValue &v)
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = JValue::Obj;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                ws();
                std::string key;
                if (!string(key))
                    return false;
                ws();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
                JValue child;
                if (!value(child))
                    return false;
                v.obj.emplace(std::move(key), std::move(child));
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != '}')
                return false;
            ++pos_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            v.kind = JValue::Arr;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JValue child;
                if (!value(child))
                    return false;
                v.arr.push_back(std::move(child));
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= s_.size() || s_[pos_] != ']')
                return false;
            ++pos_;
            return true;
        }
        if (c == '"') {
            v.kind = JValue::Str;
            return string(v.str);
        }
        if (c == 't')
            return lit("true", v, JValue::Bool, true);
        if (c == 'f')
            return lit("false", v, JValue::Bool, false);
        if (c == 'n')
            return lit("null", v, JValue::Null, false);
        // number
        size_t start = pos_;
        if (c == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        v.kind = JValue::Num;
        v.num = std::strtod(s_.c_str() + start, nullptr);
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

TEST(TraceChrome, ExportIsValidAndReconciles)
{
    ScopedTraceEnv env(nullptr);
    std::string doc;
    uint64_t final_tsc = 0;
    runPagingScenario(nullptr, [&](sdk::VeilVm &vm) {
        doc = trace::chromeTraceJson(vm.machine().tracer());
        final_tsc = vm.machine().tsc();
    });
    ASSERT_FALSE(doc.empty());

    JValue root;
    ASSERT_TRUE(JsonParser(doc).parse(root)) << "export is not valid JSON";
    ASSERT_EQ(root.kind, JValue::Obj);

    // "veil" attribution block reconciles with the machine.
    const JValue *veil = root.find("veil");
    ASSERT_NE(veil, nullptr);
    const JValue *total = veil->find("totalCycles");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(uint64_t(total->num), final_tsc);
    const JValue *bycat = veil->find("cyclesByCategory");
    ASSERT_NE(bycat, nullptr);
    double sum = 0;
    for (const auto &[name, v] : bycat->obj)
        sum += v.num;
    EXPECT_EQ(uint64_t(sum), uint64_t(total->num));

    // Event stream: metadata names every track; spans nest per track.
    const JValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JValue::Arr);
    ASSERT_FALSE(events->arr.empty());

    std::map<uint64_t, std::string> track_names;
    struct Span
    {
        uint64_t ts, dur;
    };
    std::map<uint64_t, std::vector<Span>> spans;
    size_t instants = 0;
    for (const JValue &e : events->arr) {
        ASSERT_EQ(e.kind, JValue::Obj);
        const JValue *ph = e.find("ph");
        const JValue *tid = e.find("tid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(tid, nullptr);
        if (ph->str == "M") {
            track_names[uint64_t(tid->num)] =
                e.find("args")->find("name")->str;
            continue;
        }
        const JValue *name = e.find("name");
        const JValue *ts = e.find("ts");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ts, nullptr);
        if (ph->str == "X") {
            // Residency ("guest-run") spans describe VMSA occupancy and
            // legitimately straddle yield points; every other span obeys
            // stack discipline on its track.
            if (name->str != "guest-run")
                spans[uint64_t(tid->num)].push_back(
                    {uint64_t(ts->num), uint64_t(e.find("dur")->num)});
        } else {
            EXPECT_EQ(ph->str, "i");
            ++instants;
        }
        EXPECT_TRUE(track_names.count(uint64_t(tid->num)))
            << "event on unnamed track " << uint64_t(tid->num);
        EXPECT_LE(uint64_t(ts->num), final_tsc);
    }
    EXPECT_GT(instants, 0u);
    EXPECT_FALSE(spans.empty());

    for (auto &[tid, list] : spans) {
        std::stable_sort(list.begin(), list.end(),
                         [](const Span &a, const Span &b) {
                             if (a.ts != b.ts)
                                 return a.ts < b.ts;
                             return a.dur > b.dur;
                         });
        std::vector<uint64_t> ends; // open-span end stack
        for (const Span &s : list) {
            while (!ends.empty() && ends.back() <= s.ts)
                ends.pop_back();
            if (!ends.empty()) {
                EXPECT_LE(s.ts + s.dur, ends.back())
                    << "span overlap on track " << tid;
            }
            ends.push_back(s.ts + s.dur);
        }
    }
}

} // namespace
} // namespace veil
