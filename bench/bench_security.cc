/**
 * @file
 * Tables 1 + 2 and §8.3 validation: run the full attack battery against
 * fresh CVMs and print each attack, the paper's listed defense, and the
 * observed behaviour.
 */
#include "common.hh"

#include "sdk/attacks.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

namespace {

/** Print one battery and gate its undefended attacks at zero. */
void
printBattery(const char *gate_name, const char *title,
             const std::vector<AttackOutcome> &outcomes)
{
    Table t(title, {"Attack", "Defense (paper)", "Observed", "Defended"});
    int undefended = 0;
    for (const auto &o : outcomes) {
        t.addRow({o.attack, o.defense,
                  o.observed.substr(0, 60), o.defended ? "yes" : "NO"});
        undefended += !o.defended;
    }
    t.print();
    gate(fmt("security.%s.undefended", gate_name), undefended, "==", 0);
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_security");
    heading("§8 security analysis and validation");

    printBattery("framework",
                 "Table 1: attacks against the Veil framework (§8.1)",
                 runFrameworkAttacks());
    printBattery("enclave",
                 "Table 2: attacks against VeilS-ENC enclaves (§8.2)",
                 runEnclaveAttacks());
    printBattery(
        "paper_validation",
        "§8.3 experimental validation (the paper's two concrete attacks)",
        runPaperValidationAttacks());
    printBattery("chaos",
                 "VeilChaos: hostile-hypervisor resilience (DESIGN.md §10)",
                 runChaosAttacks());
    printBattery("attestation",
                 "Attestation & session provisioning (DESIGN.md §15)",
                 runAttestationAttacks());
    return gateFinish();
}
