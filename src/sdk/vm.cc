#include "sdk/vm.hh"

#include "base/log.hh"
#include "base/rng.hh"

namespace veil::sdk {

using namespace snp;

namespace {

/** Size of the measured boot image. */
constexpr size_t kBootImageBytes = 128 * 1024;

} // namespace

VeilVm::VeilVm(VmConfig config)
    : config_(std::move(config)),
      layout_(core::CvmLayout::compute(config_.machine.memBytes,
                                       config_.machine.numVcpus,
                                       kBootImageBytes, config_.logBytes)),
      machine_(config_.machine),
      hv_(machine_)
{
    kernel_ = std::make_unique<kern::Kernel>(machine_, layout_,
                                             config_.kernel,
                                             config_.veilEnabled);

    // The measured boot image: VeilMon + services, or the kernel image
    // for a native CVM. Contents are deterministic synthetic bytes.
    Rng image_rng(config_.veilEnabled ? 0x7665696cULL : 0x6c696e78ULL);
    bootImage_ = image_rng.bytes(kBootImageBytes);

    if (config_.veilEnabled) {
        monitor_ = std::make_unique<core::VeilMon>(machine_, layout_);
        monitor_->setLazyAccept(config_.kernel.lazyAccept);
        services_ = std::make_unique<core::ServiceDispatcher>(
            machine_, layout_, *monitor_, config_.kernel.moduleKey);

        monitor_->setKernelEntries(
            kernel_->bspEntry(),
            [this](uint32_t vcpu) { return kernel_->apEntry(vcpu); });
        monitor_->setServiceEntry(
            [this](uint32_t vcpu) { return services_->entryFor(vcpu); });
        monitor_->setEnclaveEntryFactory(
            [this](uint64_t enclave_id, uint64_t program_id) -> GuestEntry {
                return [this, program_id](Vcpu &cpu) {
                    const EnclaveProgram *prog = registry_.find(program_id);
                    ensure(prog != nullptr, "VeilVm: unknown enclave program");
                    enclaveRuntimeMain(cpu, *prog,
                                       registry_.worker(program_id));
                };
            });
    }
}

VeilVm::~VeilVm() = default;

core::VeilMon &
VeilVm::monitor()
{
    ensure(monitor_ != nullptr, "VeilVm: Veil is disabled");
    return *monitor_;
}

core::ServiceDispatcher &
VeilVm::services()
{
    ensure(services_ != nullptr, "VeilVm: Veil is disabled");
    return *services_;
}

hv::Hypervisor::RunResult
VeilVm::run(kern::Kernel::InitFn init)
{
    kernel_->setInit(std::move(init));

    hv::LaunchParams params;
    params.bootImage = bootImage_;
    params.imageBase = layout_.imageBase;
    params.bootVmsaPage = layout_.vmsaPool;
    params.extraSharedPages = layout_.launchSharedPages();
    // Everything launch touches (image, VMSA pool, GHCBs, IDCBs) sits
    // below kernelBase, so the OS region is safe to leave unaccepted.
    params.lazyAccept = config_.kernel.lazyAccept;
    params.lazyLo = layout_.kernelBase;
    if (config_.veilEnabled) {
        params.bootGhcb = layout_.bootGhcb;
        params.bootIrqMasked = true;
        params.bootEntry = [this](Vcpu &cpu) { monitor_->bootMain(cpu); };
    } else {
        params.bootGhcb = layout_.osGhcb(0);
        params.bootIrqMasked = false;
        params.bootEntry = kernel_->bspEntry();
    }

    bootVmsa_ = hv::launchCvm(machine_, hv_, params);
    return hv_.run(bootVmsa_);
}

} // namespace veil::sdk
