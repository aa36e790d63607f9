#include "snp/vcpu.hh"

#include <algorithm>
#include <cstring>

#include "base/log.hh"
#include "snp/fault.hh"

namespace veil::snp {

void
Vcpu::checkRmp(Gpa pa, size_t len, Access access)
{
    RmpTable &rmp = machine_.rmp();
    forEachPageIn(pa, len, [&](Gpa page) {
        if (!rmp.allowed(vmpl(), page, access, cpl())) {
            throw NpfFault(page, vmpl(), access,
                           "RMP permission violation");
        }
    });
}

Gpa
Vcpu::translateChecked(Gva va, Access access) const
{
    const Vmsa &v = vmsa();
    Translation t = walk(machine_.memory(), v.cr3, va, access, v.cpl,
                         &machine_.rmp(), v.vmpl);
    Gpa page = pageAlignDown(t.gpa);
    // The RMP check is per-4K-page even under a PS-bit leaf: a huge
    // region's 512 entries are kept state-coherent (rmp.hh), so the
    // containing page's verdict is the region's verdict.
    if (!machine_.rmp().allowed(v.vmpl, page, access, v.cpl))
        throw NpfFault(page, v.vmpl, access, "RMP permission violation");
    return t.gpa;
}

void
Vcpu::accessVirtual(Gva va, void *buf, size_t len, Access access)
{
    machine_.charge(costs().copyCost(len));
    auto *p = static_cast<uint8_t *>(buf);
    size_t done = 0;
    while (done < len) {
        Gva cur = va + done;
        size_t in_page = kPageSize - (cur & (kPageSize - 1));
        size_t take = std::min(len - done, in_page);
        Gpa pa = translateChecked(cur, access);
        if (access == Access::Write)
            machine_.memory().write(pa, p + done, take);
        else
            machine_.memory().read(pa, p + done, take);
        done += take;
    }
    machine_.pollTimer();
}

void
Vcpu::read(Gva va, void *out, size_t len)
{
    accessVirtual(va, out, len, Access::Read);
}

void
Vcpu::write(Gva va, const void *data, size_t len)
{
    accessVirtual(va, const_cast<void *>(data), len, Access::Write);
}

std::string
Vcpu::readCStr(Gva va, size_t max_len)
{
    // Page-at-a-time: one checked translation per page instead of one
    // full walk + RMP lookup per byte. The cycle accounting is the
    // historical per-byte model (see CostModel::copyCost): every byte
    // examined — terminator included — is charged copyCost(1) and then
    // polls the timer, so the simulated TSC sequence is identical to
    // the old byte loop.
    std::string out;
    size_t remaining = max_len;
    Gva cur = va;
    while (remaining > 0) {
        size_t in_page = kPageSize - (cur & (kPageSize - 1));
        size_t take = std::min(remaining, in_page);
        Gpa pa = translateChecked(cur, Access::Read);
        size_t base = out.size();
        out.resize(base + take);
        machine_.memory().read(pa, out.data() + base, take);
        for (size_t i = 0; i < take; ++i) {
            machine_.charge(costs().copyCost(1));
            machine_.pollTimer();
            if (out[base + i] == '\0') {
                out.resize(base + i);
                return out;
            }
        }
        cur += take;
        remaining -= take;
    }
    fatal("readCStr: unterminated string");
}

void
Vcpu::checkExec(Gva va)
{
    translateChecked(va, Access::Execute);
}

void
Vcpu::checkPhysPrivilege(Gpa pa, size_t len)
{
    // Physical-address operations model supervisor accesses through the
    // direct map. Ring-3 code has no such instruction path — except for
    // hypervisor-shared pages (the user-mapped GHCB protocol, §6.2),
    // which stand in for their user-VA mappings.
    if (cpl() != Cpl::User)
        return;
    forEachPageIn(pa, len, [&](Gpa page) {
        if (!machine_.rmp().isShared(page))
            panic("Vcpu: physical access from CPL-3 to a private page");
    });
}

void
Vcpu::readPhys(Gpa pa, void *out, size_t len)
{
    machine_.charge(costs().copyCost(len));
    checkPhysPrivilege(pa, len);
    checkRmp(pa, len, Access::Read);
    machine_.memory().read(pa, out, len);
}

void
Vcpu::writePhys(Gpa pa, const void *data, size_t len)
{
    machine_.charge(costs().copyCost(len));
    checkPhysPrivilege(pa, len);
    checkRmp(pa, len, Access::Write);
    machine_.memory().write(pa, data, len);
}

void
Vcpu::zeroPhys(Gpa page)
{
    machine_.charge(costs().copyCost(kPageSize));
    checkRmp(page, kPageSize, Access::Write);
    machine_.memory().zeroPage(page);
}

void
Vcpu::rmpadjust(Gpa page, Vmpl target, PermMask perms, bool warm)
{
    trace::SpanScope span(machine_.tracer(), trace::Category::Rmpadjust,
                          page);
    machine_.charge(warm ? costs().rmpadjustWarm : costs().rmpadjustPage);
    ++machine_.stats().rmpadjusts;
    machine_.rmp().rmpadjust(vmpl(), page, target, perms);
}

void
Vcpu::pvalidate(Gpa page, bool validate)
{
    trace::SpanScope span(machine_.tracer(), trace::Category::Pvalidate,
                          page);
    machine_.charge(costs().pvalidatePage);
    ++machine_.stats().pvalidates;
    machine_.rmp().pvalidate(vmpl(), page, validate);
}

void
Vcpu::pvalidate2m(Gpa base, bool validate)
{
    trace::SpanScope span(machine_.tracer(), trace::Category::Pvalidate,
                          base);
    machine_.charge(costs().pvalidate2m);
    ++machine_.stats().pvalidates2m;
    machine_.rmp().pvalidate2m(vmpl(), base, validate);
}

void
Vcpu::rmpadjust2m(Gpa base, Vmpl target, PermMask perms, bool warm)
{
    trace::SpanScope span(machine_.tracer(), trace::Category::Rmpadjust,
                          base);
    machine_.charge(warm ? costs().rmpadjust2mWarm : costs().rmpadjust2m);
    ++machine_.stats().rmpadjusts;
    machine_.rmp().rmpadjust2m(vmpl(), base, target, perms);
}

VmsaId
Vcpu::createVmsa(Gpa page, uint32_t vcpu_id, Vmpl vmpl_level, bool irq_masked,
                 GuestEntry entry)
{
    machine_.charge(costs().vmsaInit);
    ++machine_.stats().rmpadjusts;
    // RMPADJUST with the VMSA attribute: VMPL-0 only, marks the page.
    machine_.rmp().rmpadjust(vmpl(), page, Vmpl::Vmpl1, kPermNone,
                             /*make_vmsa=*/true);
    Vmsa state;
    state.vcpuId = vcpu_id;
    state.vmpl = vmpl_level;
    state.cpl = Cpl::Supervisor;
    state.page = page;
    state.irqMasked = irq_masked;
    state.entry = std::move(entry);
    return machine_.addVmsa(std::move(state));
}

void
Vcpu::vmgexit()
{
    machine_.guestExit(ExitReason::NonAutomatic);
}

uint64_t
Vcpu::hypercall(const Ghcb &request)
{
    // Arm the drop-detection sentinel before exiting: a well-behaved
    // hypervisor always overwrites result, so seeing the sentinel on
    // resume proves the relay was swallowed and the request must be
    // re-issued. Bounded so a hypervisor that drops forever turns into
    // an attributed halt instead of a livelock. All GHCB requests are
    // idempotent at the hypervisor (register/start/page-state/console
    // are level-triggered; switches re-route the same way), so a re-ask
    // after a dropped relay is safe.
    Ghcb armed = request;
    armed.result = kGhcbNoResult;
    for (int attempt = 0; attempt < 8; ++attempt) {
        writeGhcb(armed);
        vmgexit();
        uint64_t result = readGhcb().result;
        if (result != kGhcbNoResult)
            return result;
        ++machine_.stats().hypercallRetries;
    }
    throw CvmHaltFault("hypercall relay dropped beyond retry budget "
                       "(exitCode " + std::to_string(request.exitCode) + ")");
}

void
Vcpu::burn(uint64_t cycles)
{
    machine_.charge(cycles);
    machine_.pollTimer();
}

void
Vcpu::wrmsrGhcb(Gpa gpa)
{
    if (cpl() != Cpl::Supervisor)
        fatal("wrmsr(GHCB) requires CPL-0");
    ensure(isPageAligned(gpa), "GHCB must be page-aligned");
    vmsa().ghcbGpa = gpa;
}

Ghcb
Vcpu::readGhcb()
{
    Gpa gpa = vmsa().ghcbGpa;
    if (gpa == kNoGhcb)
        fatal("GHCB MSR not set");
    Ghcb g;
    readPhys(gpa, &g, sizeof(g));
    return g;
}

void
Vcpu::writeGhcb(const Ghcb &g)
{
    Gpa gpa = vmsa().ghcbGpa;
    if (gpa == kNoGhcb)
        fatal("GHCB MSR not set");
    writePhys(gpa, &g, sizeof(g));
}

AttestationReport
Vcpu::attest(const ReportData &report_data)
{
    // SNP guest requests travel encrypted through the hypervisor to the
    // PSP; we model the round trip cost and call the PSP directly.
    machine_.charge(costs().domainSwitchRoundTrip());
    return machine_.psp().report(vmpl(), report_data);
}

} // namespace veil::snp
