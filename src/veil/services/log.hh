/**
 * @file
 * VeilS-LOG: system audit log protection (§6.3).
 *
 * A reserved append-only storage region inside Dom-SRV memory holds
 * audit records the kernel forwards *before* executing each critical
 * event (execute-ahead protection). The compromised kernel can stop
 * sending new records but can never modify or truncate stored ones.
 * The remote user retrieves and clears records through the sealed
 * VeilMon channel; retrieval requests arriving through the untrusted
 * network are authenticated and replay-protected.
 */
#ifndef VEIL_VEIL_SERVICES_LOG_HH_
#define VEIL_VEIL_SERVICES_LOG_HH_

#include "veil/monitor.hh"
#include "veil/proto.hh"

namespace veil::core {

/** Commands inside a sealed LogQuery request. */
enum class LogQueryCmd : uint8_t {
    Fetch = 0, ///< arg = max bytes to return
    Clear = 1, ///< arg = clear records up to this offset (post-retrieval)
    Stats = 2,
};

/** The audit-log protected service. */
class LogService
{
  public:
    LogService(snp::Machine &machine, const CvmLayout &layout,
               VeilMon &monitor);

    /** Dispatch a LOG IDCB request (runs on the Dom-SRV VCPU). */
    void handle(snp::Vcpu &cpu, IdcbMessage &msg);

    // Introspection for tests / benches.
    uint64_t recordCount() const { return records_; }
    uint64_t bytesUsed() const { return head_ - base_; }
    uint64_t droppedRecords() const { return drops_; }

    /** Host-side test helper: decode all stored records. */
    std::vector<std::string> snapshotRecords() const;

  private:
    void opAppend(snp::Vcpu &cpu, IdcbMessage &msg);
    void opQuery(snp::Vcpu &cpu, IdcbMessage &msg);
    void opStats(snp::Vcpu &cpu, IdcbMessage &msg);

    snp::Machine &machine_;
    CvmLayout layout_;
    VeilMon &monitor_;
    snp::Gpa base_;     ///< storage base (== layout.logStore)
    snp::Gpa end_;      ///< storage limit
    snp::Gpa head_;     ///< next write offset
    snp::Gpa readPos_;  ///< retrieval cursor
    uint64_t records_ = 0;
    uint64_t drops_ = 0;
};

} // namespace veil::core

#endif // VEIL_VEIL_SERVICES_LOG_HH_
