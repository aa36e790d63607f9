#include "trace/trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace veil::trace {

/**
 * Per-thread tracer binding for multicore mode: which tracer the
 * calling worker thread belongs to, its time source (the VCPU's TSC
 * shard), its private host context, and the context currently charged.
 * Single-threaded mode never consults this (cur_/tsc_ play the role).
 */
struct TracerThreadState
{
    const Tracer *owner = nullptr;
    const uint64_t *clock = nullptr;
    Tracer::Ctx *host = nullptr;
    Tracer::Ctx *cur = nullptr;
};

namespace {
thread_local TracerThreadState t_trace;

uint64_t
atomicLoad64(const uint64_t &v)
{
    return std::atomic_ref<uint64_t>(const_cast<uint64_t &>(v))
        .load(std::memory_order_relaxed);
}
} // namespace

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::HostSched:
        return "host-sched";
      case Category::GuestRun:
        return "guest-run";
      case Category::VmEnter:
        return "vmenter";
      case Category::VmgExit:
        return "vmgexit";
      case Category::TimerIntr:
        return "timer-intr";
      case Category::IntrDeliver:
        return "intr-deliver";
      case Category::DomainSwitch:
        return "domain-switch";
      case Category::DeniedSwitch:
        return "denied-switch";
      case Category::Rmpadjust:
        return "rmpadjust";
      case Category::Pvalidate:
        return "pvalidate";
      case Category::Npf:
        return "npf";
      case Category::Syscall:
        return "syscall";
      case Category::MonitorReq:
        return "monitor-request";
      case Category::ServiceKci:
        return "service-kci";
      case Category::ServiceEnc:
        return "service-enc";
      case Category::ServiceLog:
        return "service-log";
      case Category::EnclavePageIn:
        return "enclave-page-in";
      case Category::EnclavePageOut:
        return "enclave-page-out";
      case Category::CryptoKeySetup:
        return "crypto-key-setup";
      case Category::AuditFlush:
        return "audit-flush";
      case Category::AuditTruncate:
        return "audit-truncate";
      case Category::FaultInject:
        return "fault-inject";
      case Category::RingFlush:
        return "ring-flush";
      case Category::FleetSched:
        return "fleet-sched";
      case Category::Evict:
        return "evict";
      case Category::kCount:
        break;
    }
    return "unknown";
}

namespace {

/** floor(log2(v)) clamped to the histogram bucket range; 0 -> bucket 0. */
size_t
log2Bucket(uint64_t v)
{
    size_t b = 0;
    while (v > 1 && b + 1 < SpanHistogram::kBuckets) {
        v >>= 1;
        ++b;
    }
    return b;
}

} // namespace

void
Tracer::configure(const TraceConfig &config, uint32_t num_vcpus,
                  const uint64_t *tsc)
{
    enabled_ = config.enabled;
    if (const char *env = std::getenv("VEIL_TRACE")) {
        if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
            std::strcmp(env, "false") == 0) {
            enabled_ = false;
        } else if (std::strcmp(env, "on") == 0 ||
                   std::strcmp(env, "1") == 0) {
            enabled_ = true;
        }
    }
    tsc_ = tsc;
    cap_ = config.ringCapacity > 0 ? config.ringCapacity : 1;
    numVcpus_ = num_vcpus;
    if (!enabled_)
        return;
    rings_.resize(num_vcpus + 1);
    for (Ring &r : rings_)
        r.buf.reserve(std::min<size_t>(cap_, 4096));
}

void
Tracer::setMulticore(bool on)
{
    mt_ = on;
    if (on && enabled_) {
        mtHost_.resize(numVcpus_);
        ringLocks_ = std::make_unique<base::Spinlock[]>(
            rings_.empty() ? 1 : rings_.size());
    }
}

void
Tracer::presizeGuest(size_t n)
{
    if (!enabled_)
        return;
    if (guest_.size() < n)
        guest_.resize(n);
}

void
Tracer::bindThread(uint32_t vcpu, const uint64_t *clock)
{
    if (!enabled_ || !mt_)
        return;
    if (mtHost_.size() < numVcpus_)
        mtHost_.resize(numVcpus_);
    Ctx *host = &mtHost_.at(vcpu);
    t_trace.owner = this;
    t_trace.clock = clock;
    t_trace.host = host;
    t_trace.cur = host;
}

void
Tracer::unbindThread()
{
    if (t_trace.owner == this)
        t_trace = TracerThreadState{};
}

uint64_t
Tracer::now() const
{
    if (mt_) {
        const uint64_t *src = tsc_;
        if (t_trace.owner == this && t_trace.clock != nullptr)
            src = t_trace.clock;
        return src != nullptr ? atomicLoad64(*src) : 0;
    }
    return tsc_ != nullptr ? *tsc_ : 0;
}

Tracer::Ctx *
Tracer::currentCtx()
{
    if (mt_ && t_trace.owner == this && t_trace.cur != nullptr)
        return t_trace.cur;
    return cur_;
}

const Tracer::Ctx *
Tracer::currentCtx() const
{
    return const_cast<Tracer *>(this)->currentCtx();
}

size_t
Tracer::ringIdxFor(uint32_t vcpu) const
{
    // Host events (and out-of-range VCPUs, defensively) share the last
    // ring.
    return vcpu < rings_.size() - 1 ? vcpu : rings_.size() - 1;
}

void
Tracer::record(size_t ring_idx, const Event &e)
{
    Ring &ring = rings_[ring_idx];
    if (mt_ && ringLocks_) {
        std::lock_guard<base::Spinlock> guard(ringLocks_[ring_idx]);
        if (ring.buf.size() < cap_) {
            ring.buf.push_back(e);
            return;
        }
        ring.buf[ring.head] = e;
        ring.head = (ring.head + 1) % cap_;
        ++ring.dropped;
        return;
    }
    if (ring.buf.size() < cap_) {
        ring.buf.push_back(e);
        return;
    }
    // Flight recorder: overwrite the oldest event, count the loss.
    ring.buf[ring.head] = e;
    ring.head = (ring.head + 1) % cap_;
    ++ring.dropped;
}

void
Tracer::onChargeMt(uint64_t cycles)
{
    std::atomic_ref<uint64_t>(total_).fetch_add(cycles,
                                                std::memory_order_relaxed);
    Ctx *ctx = currentCtx();
    size_t cat;
    if (ctx->stack.empty()) {
        cat = static_cast<size_t>(ctx->defaultCat);
    } else {
        OpenSpan &top = ctx->stack.back();
        top.self += cycles; // context is thread-private (VCPU affinity)
        cat = static_cast<size_t>(top.cat);
    }
    std::atomic_ref<uint64_t>(cyclesByCat_[cat])
        .fetch_add(cycles, std::memory_order_relaxed);
}

void
Tracer::enterContext(uint32_t vmsa, uint32_t vcpu, uint8_t vmpl)
{
    if (!enabled_)
        return;
    if (mt_ && t_trace.owner == this) {
        // Contexts were pre-sized before workers spawned; a VMSA's
        // context is only ever touched by its VCPU's worker thread.
        if (vmsa >= guest_.size())
            return;
        Ctx &ctx = guest_[vmsa];
        ctx.vcpu = vcpu;
        ctx.vmpl = vmpl;
        ctx.defaultCat = Category::GuestRun;
        t_trace.cur = &ctx;
        return;
    }
    if (vmsa >= guest_.size())
        guest_.resize(vmsa + 1);
    Ctx &ctx = guest_[vmsa];
    ctx.vcpu = vcpu;
    ctx.vmpl = vmpl;
    ctx.defaultCat = Category::GuestRun;
    cur_ = &ctx;
}

void
Tracer::exitContext()
{
    if (!enabled_)
        return;
    if (mt_ && t_trace.owner == this) {
        t_trace.cur = t_trace.host;
        return;
    }
    cur_ = &host_;
}

void
Tracer::instant(Category cat, uint64_t arg)
{
    if (!enabled_)
        return;
    const Ctx *ctx = currentCtx();
    instantAt(ctx->vcpu, ctx->vmpl, cat, arg);
}

void
Tracer::instantAt(uint32_t vcpu, uint8_t vmpl, Category cat, uint64_t arg)
{
    if (!enabled_)
        return;
    Event e;
    e.cat = cat;
    e.kind = EventKind::Instant;
    e.vcpu = vcpu;
    e.vmpl = vmpl;
    e.tsc = now();
    e.arg = arg;
    record(ringIdxFor(vcpu), e);
}

void
Tracer::beginSpan(Category cat, uint64_t arg)
{
    if (!enabled_)
        return;
    currentCtx()->stack.push_back(OpenSpan{cat, now(), arg, 0});
}

void
Tracer::endSpan()
{
    if (!enabled_)
        return;
    Ctx *cur = currentCtx();
    // Tolerate a pop on an empty stack: RAII spans unwinding through a
    // fiber teardown may fire after their context was already switched
    // away (the machine is dying; nothing to record).
    if (cur->stack.empty())
        return;
    OpenSpan top = cur->stack.back();
    cur->stack.pop_back();

    Event e;
    e.cat = top.cat;
    e.kind = EventKind::Span;
    e.vcpu = cur->vcpu;
    e.vmpl = cur->vmpl;
    e.tsc = top.start;
    e.dur = now() - top.start;
    e.self = top.self;
    e.arg = top.arg;
    record(ringIdxFor(cur->vcpu), e);

    SpanHistogram &h = hist_[static_cast<size_t>(top.cat)];
    if (mt_) {
        std::lock_guard<base::Spinlock> guard(histLock_);
        ++h.buckets[log2Bucket(top.self)];
        ++h.count;
        h.sum += top.self;
        if (top.self > h.max)
            h.max = top.self;
        return;
    }
    ++h.buckets[log2Bucket(top.self)];
    ++h.count;
    h.sum += top.self;
    if (top.self > h.max)
        h.max = top.self;
}

void
Tracer::spanAt(uint32_t vcpu, uint8_t vmpl, Category cat, uint64_t t0,
               uint64_t t1, uint64_t arg)
{
    if (!enabled_)
        return;
    Event e;
    e.cat = cat;
    e.kind = EventKind::Span;
    e.vcpu = vcpu;
    e.vmpl = vmpl;
    e.tsc = t0;
    e.dur = t1 >= t0 ? t1 - t0 : 0;
    e.arg = arg;
    record(ringIdxFor(vcpu), e);
}

uint64_t
Tracer::recordedEvents() const
{
    uint64_t n = 0;
    for (const Ring &r : rings_)
        n += r.buf.size() + r.dropped;
    return n;
}

uint64_t
Tracer::droppedEvents() const
{
    uint64_t n = 0;
    for (const Ring &r : rings_)
        n += r.dropped;
    return n;
}

uint64_t
Tracer::ringDropped(size_t ring) const
{
    return ring < rings_.size() ? rings_[ring].dropped : 0;
}

std::vector<Event>
Tracer::ringEvents(size_t ring) const
{
    if (ring >= rings_.size())
        return {};
    const Ring &r = rings_[ring];
    std::vector<Event> out;
    out.reserve(r.buf.size());
    // Once wrapped, head points at the oldest surviving event.
    for (size_t i = 0; i < r.buf.size(); ++i)
        out.push_back(r.buf[(r.head + i) % r.buf.size()]);
    return out;
}

} // namespace veil::trace
