#include "chaos/engine.hpp"

#include <gtest/gtest.h>

#include "chaos/oracle.hpp"
#include "chaos/scenario.hpp"

namespace sma::chaos {
namespace {

constexpr int kDisks = 9;  // mirror_with_parity(4)

TEST(ChaosScenario, ComposedSpecsRoundTripThroughTheParser) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const Scenario sc = compose_scenario(seed, kDisks);
    ASSERT_FALSE(sc.steps.empty());
    EXPECT_EQ(sc.steps[0].action, ChaosAction::kFailStop);
    const auto parsed = parse_scenario(sc.spec(), seed);
    ASSERT_TRUE(parsed.is_ok()) << sc.spec() << ": "
                                << parsed.status().to_string();
    EXPECT_EQ(parsed.value().spec(), sc.spec());
    EXPECT_EQ(parsed.value().steps.size(), sc.steps.size());
  }
  const Scenario ref = reference_scenario(kDisks);
  const auto parsed = parse_scenario(ref.spec(), ref.seed);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().spec(), ref.spec());
}

TEST(ChaosScenario, ComposeIsAPureFunctionOfTheSeed) {
  EXPECT_EQ(compose_scenario(42, kDisks).spec(),
            compose_scenario(42, kDisks).spec());
  bool any_differ = false;
  for (std::uint64_t seed = 1; seed <= 8 && !any_differ; ++seed)
    any_differ = compose_scenario(seed, kDisks).spec() !=
                 compose_scenario(seed + 100, kDisks).spec();
  EXPECT_TRUE(any_differ);
}

TEST(ChaosScenario, MalformedSpecsAreRejectedWithTheTokenNamed) {
  EXPECT_EQ(parse_scenario("fail:d0").status().code(),
            ErrorCode::kInvalidArgument);  // missing @<t>
  EXPECT_EQ(parse_scenario("explode@1:d0").status().code(),
            ErrorCode::kInvalidArgument);  // unknown step
  EXPECT_EQ(parse_scenario("fail@1").status().code(),
            ErrorCode::kInvalidArgument);  // missing disk
  EXPECT_EQ(parse_scenario("failslow@0:d1:x0.5").status().code(),
            ErrorCode::kInvalidArgument);  // factor must exceed 1
  EXPECT_EQ(parse_scenario("transient@0:d1:p1.5").status().code(),
            ErrorCode::kInvalidArgument);  // probability out of range
  EXPECT_EQ(parse_scenario("corrupt@0:n0:bitrot").status().code(),
            ErrorCode::kInvalidArgument);  // zero corruptions
  const auto err = parse_scenario("fail@1:q9");
  ASSERT_FALSE(err.is_ok());
  EXPECT_NE(err.status().to_string().find("q9"), std::string::npos);
}

TEST(ChaosEngine, ReferenceScenarioRunsAllPhasesCleanly) {
  ChaosConfig cfg;
  cfg.scenario = reference_scenario(kDisks);
  const auto r = run_scenario(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const ChaosReport& rep = r.value();
  EXPECT_GT(rep.serving.requests_completed, 0u);
  EXPECT_TRUE(rep.serving.second_failure_injected);
  EXPECT_TRUE(rep.crashed);
  EXPECT_GT(rep.resync.regions_scanned, 0);
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_EQ(rep.repairs_started, 2);  // primary + second failure
  EXPECT_EQ(rep.rebuild.unrecoverable_elements, 0u);
  EXPECT_EQ(rep.final_state, repair::ArrayState::kHealthy);
  EXPECT_GT(rep.oracle_checks, 6);
}

TEST(ChaosEngine, RejectsStepsTargetingDisksBeyondTheArray) {
  ChaosConfig cfg;
  auto parsed = parse_scenario("fail@0:d99");
  ASSERT_TRUE(parsed.is_ok());
  cfg.scenario = std::move(parsed).take();
  EXPECT_EQ(run_scenario(cfg).status().code(), ErrorCode::kInvalidArgument);
}

TEST(ChaosEngine, EngineErrorsCarryTheReplayPair) {
  ChaosConfig cfg;
  auto parsed = parse_scenario("fail@0:d99", 4242);
  ASSERT_TRUE(parsed.is_ok());
  cfg.scenario = std::move(parsed).take();
  const auto r = run_scenario(cfg);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  const std::string msg = r.status().to_string();
  EXPECT_NE(msg.find("disk 99"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--seed=4242"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--scenario='fail@0:d99'"), std::string::npos) << msg;
}

// A transient error's retry fires when the failed attempt drains. If
// the scenario's second failure killed that disk during the attempt,
// the retry must not re-queue onto the dead disk, whose queue nothing
// dispatches again.
TEST(ChaosEngine, RetriedRebuildJobOnADiskThatDiedMidAttemptRetires) {
  ChaosConfig cfg;
  auto parsed = parse_scenario(
      "fail@0:d8,transient@0.8:d0:p0.3:u3.4,second@1:d0",
      17185907742160080638ULL);
  ASSERT_TRUE(parsed.is_ok());
  cfg.scenario = std::move(parsed).take();
  const auto r = run_scenario(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().serving.second_failure_injected);
  EXPECT_EQ(r.value().serving.requests_issued, 800u);
  EXPECT_EQ(r.value().serving.requests_completed, 800u);
}

TEST(ChaosEngine, RetriedUserReadOnADiskThatDiedMidAttemptIsRerouted) {
  ChaosConfig cfg;
  cfg.scenario = compose_scenario(1687788257818005432ULL, kDisks);
  const auto r = run_scenario(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().serving.second_failure_injected);
  EXPECT_EQ(r.value().serving.requests_issued, 800u);
  EXPECT_EQ(r.value().serving.requests_completed, 800u);
}

TEST(ChaosOracle, CatchesAnInjectorThatSkipsTheResync) {
  ChaosConfig cfg;
  cfg.scenario = reference_scenario(kDisks);
  cfg.sabotage = ChaosConfig::Sabotage::kSkipResync;
  const auto r = run_scenario(cfg);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  const std::string msg = r.status().to_string();
  EXPECT_NE(msg.find("dirty region"), std::string::npos) << msg;
  // The violation names the replay pair.
  EXPECT_NE(msg.find("--seed="), std::string::npos) << msg;
  EXPECT_NE(msg.find("--scenario="), std::string::npos) << msg;
}

TEST(ChaosOracle, CatchesAnInjectorThatLeaksSilentCorruption) {
  ChaosConfig cfg;
  auto parsed = parse_scenario("corrupt@0:n3:bitrot", 77);
  ASSERT_TRUE(parsed.is_ok());
  cfg.scenario = std::move(parsed).take();
  cfg.sabotage = ChaosConfig::Sabotage::kLeakCorruption;
  const auto r = run_scenario(cfg);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  EXPECT_NE(r.status().to_string().find("checksum"), std::string::npos)
      << r.status().to_string();
}

TEST(ChaosDeterminism, ScenarioReplaysBitIdentically) {
  ChaosConfig cfg;
  cfg.scenario = compose_scenario(7, kDisks);
  cfg.hedge.enabled = true;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().digest, b.value().digest);
}

TEST(ChaosDeterminism, SoakSerialMatchesParallelAndRepeats) {
  SoakConfig cfg;
  cfg.scenarios = 24;
  cfg.threads = 1;
  const auto serial = run_soak(cfg);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  EXPECT_EQ(serial.value().violations, 0)
      << serial.value().violation_messages.front();

  cfg.threads = 4;
  const auto parallel = run_soak(cfg);
  ASSERT_TRUE(parallel.is_ok());
  EXPECT_EQ(parallel.value().digest, serial.value().digest);

  cfg.threads = 1;
  const auto again = run_soak(cfg);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().digest, serial.value().digest);
}

TEST(ChaosSoak, TwoHundredSeededScenariosProduceZeroViolations) {
  SoakConfig cfg;
  cfg.scenarios = 200;
  cfg.threads = 4;
  const auto r = run_soak(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().scenarios_run, 200);
  EXPECT_EQ(r.value().violations, 0)
      << r.value().violation_messages.front();
}

TEST(ChaosSoak, BaseSeed20261018ProducesZeroViolations) {
  SoakConfig cfg;
  cfg.scenarios = 200;
  cfg.base_seed = 20261018;
  cfg.threads = 4;
  const auto r = run_soak(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().scenarios_run, 200);
  EXPECT_EQ(r.value().violations, 0)
      << r.value().violation_messages.front();
}

// Whole-soak digests over the content paths (element checksums, the
// recoverability oracle, the lifecycle): a change to any of them that
// moves one scenario's outcome moves these.
TEST(ChaosGolden, SoakDigestsArePinned) {
  struct Pin {
    std::uint64_t base_seed;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{20120901, 0x9c5a8bb692e0e145ULL},
                         Pin{20261018, 0x2b7e93b3680d9387ULL}}) {
    SoakConfig cfg;
    cfg.scenarios = 200;
    cfg.base_seed = pin.base_seed;
    cfg.threads = 4;
    const auto r = run_soak(cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().violations, 0) << pin.base_seed;
    EXPECT_EQ(r.value().digest, pin.digest) << pin.base_seed;
  }

  FleetScenarioConfig fleet;
  fleet.seed = 99;
  const auto f = run_fleet_scenario(fleet);
  ASSERT_TRUE(f.is_ok()) << f.status().to_string();
  EXPECT_EQ(f.value().digest, 0xcbf6de15d5f6f99eULL);
}

TEST(ChaosGolden, TraditionalSoakDigestsArePinned) {
  // The same 200 composed scenarios with every array scenario in the
  // traditional arrangement (the fleet scenarios stay shifted); pinned
  // from run_scenario with ChaosConfig::shifted = false.
  struct Pin {
    std::uint64_t base_seed;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{20120901, 0x5aa092033eefe64fULL},
                         Pin{20261018, 0x4058ac19167dbe82ULL}}) {
    SoakConfig cfg;
    cfg.scenarios = 200;
    cfg.base_seed = pin.base_seed;
    cfg.threads = 4;
    cfg.shifted = false;
    const auto r = run_soak(cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().violations, 0) << pin.base_seed;
    EXPECT_EQ(r.value().digest, pin.digest) << pin.base_seed;
  }
}

TEST(ChaosFleet, DomainScenarioIsConsistentAndDeterministic) {
  FleetScenarioConfig cfg;
  cfg.seed = 99;
  const auto r = run_fleet_scenario(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GT(r.value().failures, 0);
  const auto again = run_fleet_scenario(cfg);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().digest, r.value().digest);
}

}  // namespace
}  // namespace sma::chaos
