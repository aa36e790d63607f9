/**
 * @file
 * Kernel audit framework (kaudit analogue, §6.3 / §9.2 CS3).
 *
 * auditctl-style rules select which syscalls produce records. Four
 * backends:
 *  - None: auditing disabled (the "native" baseline);
 *  - KauditInMemory: records kept in kernel memory (the paper's
 *    modified Kaudit baseline — Auditd's slow disk writer removed);
 *  - VeilLog: each record is sent to VeilS-LOG through an IDCB +
 *    domain switch *before* the event executes (execute-ahead);
 *  - VeilLogBatched: each record queues as a LogAppend slot on the
 *    per-VCPU VeilOp ring (DESIGN.md §11) and one doorbell drains a
 *    batch — amortizes the domain switches at the cost of a bounded
 *    window in which queued records are unprotected.
 */
#ifndef VEIL_KERNEL_AUDIT_HH_
#define VEIL_KERNEL_AUDIT_HH_

#include <set>
#include <string>
#include <vector>

#include "base/bytes.hh"

namespace veil::kern {

enum class AuditBackend {
    None,
    KauditInMemory,
    VeilLog,
    VeilLogBatched,
};

/**
 * The ruleset used by the paper's CS3 experiments ([21, 103, 104]):
 * file creation, network access, and process execution calls (the
 * subset our kernel implements).
 */
std::set<uint32_t> priorWorkAuditRuleset();

/** Formats and locally stores audit records. */
class AuditSubsystem
{
  public:
    void setBackend(AuditBackend b) { backend_ = b; }
    AuditBackend backend() const { return backend_; }

    /** auditctl: replace the rule set. */
    void setRules(std::set<uint32_t> sysnos) { rules_ = std::move(sysnos); }
    bool audited(uint32_t sysno) const { return rules_.count(sysno) != 0; }

    /** Monotonic record sequence number. */
    uint64_t nextSeq() { return ++records_; }

    /** Format a record (pre-execution, per execute-ahead protection). */
    std::string format(int pid, const std::string &comm, uint32_t sysno,
                       const uint64_t args[6], uint64_t tsc,
                       uint64_t seq) const;

    /** Kaudit(IM) backend: append to the in-kernel buffer. */
    void kauditAppend(std::string record);

    uint64_t recordCount() const { return records_; }
    const std::vector<std::string> &kauditBuffer() const { return buffer_; }

  private:
    AuditBackend backend_ = AuditBackend::None;
    std::set<uint32_t> rules_;
    std::vector<std::string> buffer_;
    uint64_t records_ = 0;
};

} // namespace veil::kern

#endif // VEIL_KERNEL_AUDIT_HH_
