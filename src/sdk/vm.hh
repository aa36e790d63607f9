/**
 * @file
 * VeilVm: the top-level façade assembling a complete CVM — machine,
 * hypervisor, VeilMon + protected services (or a native VMPL-0 kernel
 * when Veil is disabled), the guest kernel, and the enclave program
 * registry. This is the primary entry point of the library: construct,
 * hand it an init workload, run().
 */
#ifndef VEIL_SDK_VM_HH_
#define VEIL_SDK_VM_HH_

#include "hv/launch.hh"
#include "kernel/kernel.hh"
#include "sdk/enclave_api.hh"
#include "veil/services/dispatcher.hh"

namespace veil::sdk {

/** Whole-VM configuration. */
struct VmConfig
{
    snp::MachineConfig machine;
    /// Install VeilMon + services (Dom-UNT kernel) vs native VMPL-0 CVM.
    bool veilEnabled = true;
    kern::KernelConfig kernel;
    size_t logBytes = 1 * 1024 * 1024; ///< VeilS-LOG reserved storage

    VmConfig()
    {
        machine.memBytes = 64 * 1024 * 1024;
        machine.numVcpus = 2;
    }
};

/** A fully-wired confidential VM. */
class VeilVm
{
  public:
    explicit VeilVm(VmConfig config);
    ~VeilVm();

    /** Set the init workload and run the CVM to completion. */
    hv::Hypervisor::RunResult run(kern::Kernel::InitFn init);

    snp::Machine &machine() { return machine_; }
    hv::Hypervisor &hypervisor() { return hv_; }
    kern::Kernel &kernel() { return *kernel_; }
    core::VeilMon &monitor();
    core::ServiceDispatcher &services();
    const core::CvmLayout &layout() const { return layout_; }
    ProgramRegistry &programs() { return registry_; }
    const VmConfig &config() const { return config_; }

    /** Boot image contents (what the remote user expects measured). */
    const Bytes &bootImage() const { return bootImage_; }

  private:
    VmConfig config_;
    core::CvmLayout layout_;
    snp::Machine machine_;
    hv::Hypervisor hv_;
    std::unique_ptr<core::VeilMon> monitor_;
    std::unique_ptr<core::ServiceDispatcher> services_;
    std::unique_ptr<kern::Kernel> kernel_;
    ProgramRegistry registry_;
    Bytes bootImage_;
    snp::VmsaId bootVmsa_ = snp::kInvalidVmsa;
};

} // namespace veil::sdk

#endif // VEIL_SDK_VM_HH_
