/**
 * @file
 * Security validation suite (§8, Tables 1-2, §8.3): runs the full
 * attack battery as parameterized tests and asserts every attack is
 * defended. The same battery backs bench_security's tables.
 */
#include <gtest/gtest.h>

#include "base/log.hh"
#include "sdk/attacks.hh"

namespace veil::sdk {
namespace {

class FrameworkAttacks : public ::testing::TestWithParam<size_t>
{
};

std::vector<AttackOutcome> &
frameworkResults()
{
    static std::vector<AttackOutcome> results = runFrameworkAttacks();
    return results;
}

std::vector<AttackOutcome> &
enclaveResults()
{
    static std::vector<AttackOutcome> results = runEnclaveAttacks();
    return results;
}

std::vector<AttackOutcome> &
validationResults()
{
    static std::vector<AttackOutcome> results = runPaperValidationAttacks();
    return results;
}

std::vector<AttackOutcome> &
chaosResults()
{
    static std::vector<AttackOutcome> results = runChaosAttacks();
    return results;
}

TEST_P(FrameworkAttacks, Defended)
{
    const AttackOutcome &o = frameworkResults().at(GetParam());
    EXPECT_TRUE(o.defended) << o.attack << " — " << o.observed;
}

INSTANTIATE_TEST_SUITE_P(Table1, FrameworkAttacks,
                         ::testing::Range<size_t>(0, 10),
                         [](const auto &info) {
                             return "Attack" + std::to_string(info.param);
                         });

class EnclaveAttacks : public ::testing::TestWithParam<size_t>
{
};

TEST_P(EnclaveAttacks, Defended)
{
    const AttackOutcome &o = enclaveResults().at(GetParam());
    EXPECT_TRUE(o.defended) << o.attack << " — " << o.observed;
}

INSTANTIATE_TEST_SUITE_P(Table2, EnclaveAttacks,
                         ::testing::Range<size_t>(0, 10),
                         [](const auto &info) {
                             return "Attack" + std::to_string(info.param);
                         });

class ChaosAttacks : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ChaosAttacks, Defended)
{
    const AttackOutcome &o = chaosResults().at(GetParam());
    EXPECT_TRUE(o.defended) << o.attack << " — " << o.observed;
}

INSTANTIATE_TEST_SUITE_P(VeilChaos, ChaosAttacks,
                         ::testing::Range<size_t>(0, 5),
                         [](const auto &info) {
                             return "Attack" + std::to_string(info.param);
                         });

std::vector<AttackOutcome> &
attestationResults()
{
    static std::vector<AttackOutcome> results = runAttestationAttacks();
    return results;
}

class AttestationAttacks : public ::testing::TestWithParam<size_t>
{
};

TEST_P(AttestationAttacks, Defended)
{
    const AttackOutcome &o = attestationResults().at(GetParam());
    EXPECT_TRUE(o.defended) << o.attack << " — " << o.observed;
}

INSTANTIATE_TEST_SUITE_P(Session, AttestationAttacks,
                         ::testing::Range<size_t>(0, 7),
                         [](const auto &info) {
                             return "Attack" + std::to_string(info.param);
                         });

TEST(PaperValidation, BothConcreteAttacksHaltTheCvm)
{
    auto &results = validationResults();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &o : results) {
        EXPECT_TRUE(o.defended) << o.attack;
        EXPECT_NE(o.observed.find("#NPF"), std::string::npos) << o.attack;
    }
}

TEST(BatterySizes, MatchPaperTables)
{
    EXPECT_EQ(frameworkResults().size(), 10u);   // Table 1 rows (+1 extra)
    EXPECT_EQ(enclaveResults().size(), 10u);     // Table 2 rows (+1 extra)
    EXPECT_EQ(chaosResults().size(), 5u);        // DESIGN.md §10 battery
    EXPECT_EQ(attestationResults().size(), 7u);  // DESIGN.md §15 battery
}

} // namespace
} // namespace veil::sdk
