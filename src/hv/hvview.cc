#include "hv/hvview.hh"

#include "base/log.hh"

namespace veil::hv {

using namespace snp;

void
HvView::checkShared(Gpa gpa, size_t len) const
{
    Gpa first = pageAlignDown(gpa);
    Gpa last = pageAlignDown(gpa + (len ? len - 1 : 0));
    for (Gpa page = first; page <= last; page += kPageSize) {
        if (!machine_.rmp().isShared(page)) {
            panic(strfmt("hypervisor touched private CVM page 0x%llx "
                         "(SEV-SNP forbids this)",
                         (unsigned long long)page));
        }
    }
}

bool
HvView::isShared(Gpa gpa, size_t len) const
{
    if (!machine_.memory().contains(gpa, len))
        return false;
    Gpa first = pageAlignDown(gpa);
    Gpa last = pageAlignDown(gpa + (len ? len - 1 : 0));
    for (Gpa page = first; page <= last; page += kPageSize) {
        if (!machine_.rmp().isShared(page))
            return false;
    }
    return true;
}

void
HvView::read(Gpa gpa, void *out, size_t len) const
{
    checkShared(gpa, len);
    machine_.memory().read(gpa, out, len);
}

void
HvView::write(Gpa gpa, const void *data, size_t len)
{
    checkShared(gpa, len);
    machine_.memory().write(gpa, data, len);
}

Ghcb
HvView::readGhcb(Gpa gpa) const
{
    Ghcb g;
    read(gpa, &g, sizeof(g));
    return g;
}

void
HvView::writeGhcb(Gpa gpa, const Ghcb &g)
{
    write(gpa, &g, sizeof(g));
}

} // namespace veil::hv
