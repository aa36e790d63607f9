#include "veil/layout.hh"

#include "base/log.hh"
#include "veil/proto.hh"

namespace veil::core {

using namespace snp;

Gpa
CvmLayout::osGhcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return osGhcbBase + Gpa(vcpu) * kPageSize;
}

Gpa
CvmLayout::monGhcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return monGhcbBase + Gpa(vcpu) * kPageSize;
}

Gpa
CvmLayout::srvGhcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return srvGhcbBase + Gpa(vcpu) * kPageSize;
}

std::vector<Gpa>
CvmLayout::launchSharedPages() const
{
    std::vector<Gpa> out;
    for (uint32_t v = 0; v < numVcpus; ++v) {
        out.push_back(monGhcb(v));
        out.push_back(srvGhcb(v));
        out.push_back(osGhcb(v));
    }
    return out;
}

Gpa
CvmLayout::osMonIdcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return osMonIdcbBase + Gpa(vcpu) * kPageSize;
}

Gpa
CvmLayout::osSrvIdcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return osSrvIdcbBase + Gpa(vcpu) * kPageSize;
}

Gpa
CvmLayout::srvMonIdcb(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return srvIdcbBase + Gpa(vcpu) * kPageSize;
}

Gpa
CvmLayout::opSubRing(uint32_t vcpu) const
{
    ensure(vcpu < numVcpus, "layout: bad vcpu");
    return opRingBase + Gpa(vcpu) * (kOpRingPages + kOpCplPages) * kPageSize;
}

Gpa
CvmLayout::opCplRing(uint32_t vcpu) const
{
    return opSubRing(vcpu) + Gpa(kOpRingPages) * kPageSize;
}

bool
CvmLayout::inMonRegion(Gpa p) const
{
    return (p >= imageBase && p < imageEnd) || (p >= monBase && p < monEnd);
}

bool
CvmLayout::inSrvRegion(Gpa p) const
{
    return p >= srvBase && p < srvEnd;
}

bool
CvmLayout::inProtectedRegion(Gpa p) const
{
    return inMonRegion(p) || inSrvRegion(p);
}

CvmLayout
CvmLayout::compute(size_t mem_bytes, uint32_t vcpus, size_t image_bytes,
                   size_t log_bytes)
{
    ensure(vcpus >= 1 && vcpus <= 64, "layout: bad vcpu count");
    CvmLayout l;
    l.numVcpus = vcpus;

    Gpa cursor = kPageSize; // page 0 reserved
    l.imageBase = cursor;
    cursor += pageAlignUp(image_bytes);
    l.imageEnd = cursor;

    // Fleet-scale machines (> 64 MiB) get proportionally larger VMSA
    // and Dom-SRV heap pools: a thousand-session clone fleet needs a
    // Dom-ENC VMSA page and protected page-table frames per clone. The
    // classic 64 MiB layout is bit-identical to keep every pinned
    // frame address unchanged (cycle-determinism tests).
    size_t mem_pages = mem_bytes / kPageSize;
    bool fleet_scale = mem_bytes > 64 * 1024 * 1024;
    Gpa vmsa_extra = (fleet_scale ? mem_pages / 16 : 0) * kPageSize;
    Gpa srv_heap_pages = fleet_scale ? mem_pages / 8 : 512;

    l.monBase = cursor;
    l.vmsaPool = cursor;
    // VMSA pool: up to 4 domains per VCPU plus enclave headroom.
    cursor += Gpa(vcpus) * 8 * kPageSize + vmsa_extra;
    l.vmsaPoolEnd = cursor;
    cursor += 64 * kPageSize; // monitor state headroom
    l.monEnd = cursor;

    l.monGhcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;
    l.srvGhcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;
    l.bootGhcb = l.monGhcbBase;

    l.srvBase = cursor;
    l.logStore = cursor;
    cursor += pageAlignUp(log_bytes);
    l.logStoreEnd = cursor;
    l.srvIdcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;
    l.srvHeap = cursor;
    cursor += srv_heap_pages * kPageSize; // enclave PT frames + staging
    l.srvEnd = cursor;

    l.osGhcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;
    l.osMonIdcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;
    l.osSrvIdcbBase = cursor;
    cursor += Gpa(vcpus) * kPageSize;

    l.kernelBase = cursor;
    l.memEnd = mem_bytes;

    // VeilOp submission + completion rings live at the very top of
    // kernel memory; carving them from the top keeps every address the
    // bottom-up frame allocator hands out identical whether or not
    // batching is enabled.
    l.opRingEnd = l.memEnd;
    l.opRingBase =
        l.opRingEnd - Gpa(vcpus) * (kOpRingPages + kOpCplPages) * kPageSize;

    ensure(l.kernelBase + 128 * kPageSize < l.opRingBase,
           "layout: machine memory too small for this configuration");
    return l;
}

} // namespace veil::core
