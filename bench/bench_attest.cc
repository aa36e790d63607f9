/**
 * @file
 * DESIGN.md §15 attestation & session-provisioning benchmark:
 *
 *  - End-to-end session throughput: establish + teardown cycles per
 *    second through a live CVM (report signing, chain transport over
 *    the IDCB, full remote verification, DH, sealed teardown), plus
 *    the simulated cycle cost per handshake.
 *  - Standalone verifier throughput: report verifications per second
 *    with the chain-walk cache warm vs cold (a fresh Verifier per
 *    report — four signature checks instead of one).
 *
 * Gates (exit 1 on violation): every handshake must verify and session
 * generations must advance by exactly one; the verifier must reject a
 * forged report and a rolled-back TCB; cached and cold verification
 * must agree; throughput and per-handshake cost stay above their
 * floors.
 */
#include "common.hh"

#include <chrono>

#include "attest/keys.hh"
#include "attest/verify.hh"
#include "sdk/vm.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_attest");
    heading("§15 attestation & session provisioning");

    // ---- End-to-end session throughput through a live CVM ----
    constexpr int kSessions = 40;
    VmConfig cfg = veilConfig(48);
    VeilVm vm(cfg);
    uint64_t handshake_cycles = 0;
    int established = 0;
    int teardown_failures = 0;
    auto t0 = std::chrono::steady_clock::now();
    vm.run([&](kern::Kernel &k, kern::Process &) {
        for (int i = 0; i < kSessions; ++i) {
            RemoteUser u(vm, 1000 + i);
            uint64_t c0 = vm.machine().tsc();
            bool ok = u.establishChannel(k);
            handshake_cycles += vm.machine().tsc() - c0;
            if (!ok || u.sessionGeneration() != uint64_t(i) + 1)
                continue;
            ++established;
            if (!u.teardownChannel(k))
                ++teardown_failures;
        }
    });
    double wall = secondsSince(t0);
    double sessions_per_sec = established / wall;
    double cycles_per_handshake =
        established ? double(handshake_cycles) / established : 0;

    Table t1("End-to-end sessions (establish + verify + teardown)",
             {"Metric", "Value"});
    t1.addRow({"sessions run", fmt("%d", established)});
    t1.addRow({"sessions/sec (host wall)", fmt("%.1f", sessions_per_sec)});
    t1.addRow({"sim cycles/handshake", fmt("%.0f", cycles_per_handshake)});
    t1.print();
    jsonMetric("sessions_per_sec", sessions_per_sec, "1/s");
    jsonMetric("cycles_per_handshake", cycles_per_handshake, "cycles");

    // ---- Standalone verifier throughput (no VM) ----
    Bytes seed{'b', 'e', 'n', 'c', 'h', '-', 'p', 's', 'p'};
    attest::PlatformKeys keys(seed, attest::kDefaultTcbVersion);
    crypto::Digest measurement = crypto::Sha256::hash("image", 5);
    attest::ReportData rd{};
    attest::AttestationReport report = keys.signReport(0, measurement, rd);
    attest::CertChain chain = keys.certChain();

    attest::VerifyPolicy policy;
    policy.expectedMeasurement = measurement;
    policy.minTcbVersion = attest::kDefaultTcbVersion;

    constexpr int kVerifies = 200;
    int verify_failures = 0;
    attest::Verifier cached(keys.rootPublic(), policy);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kVerifies; ++i) {
        if (cached.verify(report, chain) != attest::VerifyResult::Ok)
            ++verify_failures;
    }
    double cached_rate = kVerifies / secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kVerifies; ++i) {
        attest::Verifier cold(keys.rootPublic(), policy);
        if (cold.verify(report, chain) != attest::VerifyResult::Ok)
            ++verify_failures;
    }
    double cold_rate = kVerifies / secondsSince(t0);

    Table t2("Standalone verifier throughput",
             {"Variant", "verifications/sec", "speedup"});
    t2.addRow({"chain-walk cache warm", fmt("%.0f", cached_rate),
               fmt("%.2fx", cached_rate / cold_rate)});
    t2.addRow({"cold (fresh verifier)", fmt("%.0f", cold_rate), "1.00x"});
    t2.print();
    jsonMetric("verify_cached_per_sec", cached_rate, "1/s");
    jsonMetric("verify_cold_per_sec", cold_rate, "1/s");
    jsonMetric("verify_cache_speedup", cached_rate / cold_rate, "x");

    // ---- Deterministic rejection gates ----
    attest::AttestationReport forged = report;
    forged.measurement[0] ^= 1;
    bool forged_rejected =
        cached.verify(forged, chain) ==
        attest::VerifyResult::BadReportSignature;

    attest::PlatformKeys stale(seed, attest::kDefaultTcbVersion - 1);
    attest::AttestationReport stale_report =
        stale.signReport(0, measurement, rd);
    bool rollback_rejected =
        attest::Verifier(stale.rootPublic(), policy)
            .verify(stale_report, stale.certChain()) ==
        attest::VerifyResult::TcbRolledBack;

    printVmStats(vm.machine(), vm.kernel());
    traceFinish(vm.machine());

    gate("sessions_established", established, "==", kSessions);
    gate("session_teardown_failures", teardown_failures, "==", 0);
    gate("verify_failures", verify_failures, "==", 0);
    gate("forged_report_rejected_as_bad_report_signature", forged_rejected,
         "==", 1);
    gate("stale_tcb_rejected_as_tcb_rolled_back", rollback_rejected, "==",
         1);
    // The throughput floor sits far below the fixed-width arithmetic's
    // ~2000/s and far above the old bit-serial bignum's ~14/s.
    gate("sessions_per_sec", sessions_per_sec, ">=", 200);
    gate("cycles_per_handshake", cycles_per_handshake, ">=", 3000000);
    gate("verify_cache_speedup", cached_rate / cold_rate, ">=", 1.5);
    return gateFinish();
}
