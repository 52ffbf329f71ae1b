// Unit tests for the non-crashing socket fault injector: spec parsing,
// @every cadence, EINTR storms, env routing ("net." prefix) and the
// disarmed fast path. The end-to-end behavior of the injected faults is
// covered by serve_stress_test.cc and scripts/serve_chaos.sh.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "io/fault_inject.h"

namespace abcs {
namespace {

using ActionKind = NetFaultInjector::ActionKind;

// The injector is a process-wide singleton; every test starts and ends
// disarmed so ordering cannot leak faults across tests.
class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { NetFaultInjector::Instance().Disarm(); }
  void TearDown() override {
    NetFaultInjector::Instance().Disarm();
    FaultInjector::Instance().Disarm();
  }
};

TEST_F(NetFaultTest, DisarmedConsultsAreFree) {
  EXPECT_EQ(NetFaultPoint("net.client_send").kind, ActionKind::kNone);
  EXPECT_EQ(NetFaultInjector::Instance().fired("net.client_send"), 0u);
}

TEST_F(NetFaultTest, RejectsMalformedSpecs) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  const char* bad[] = {
      "net.client_send",            // no '='
      "=reset",                     // empty point
      "net.client_send=",           // empty action
      "net.client_send=explode",    // unknown action
      "net.client_send=reset@0",    // every must be >= 1
      "net.client_send=reset@",     // empty every
      "net.client_send=reset@3x",   // trailing junk in every
      "net.client_send=short:3x",   // trailing junk in arg
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(inj.ArmSpec(spec).ok()) << spec;
  }
  // Nothing was armed by the rejects.
  EXPECT_EQ(NetFaultPoint("net.client_send").kind, ActionKind::kNone);
}

TEST_F(NetFaultTest, EveryNFiresOnExactCadence) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.t=reset@3").ok());
  std::vector<ActionKind> got;
  for (int i = 0; i < 9; ++i) got.push_back(NetFaultPoint("net.t").kind);
  const std::vector<ActionKind> want = {
      ActionKind::kNone,  ActionKind::kNone, ActionKind::kReset,
      ActionKind::kNone,  ActionKind::kNone, ActionKind::kReset,
      ActionKind::kNone,  ActionKind::kNone, ActionKind::kReset};
  EXPECT_EQ(got, want);
  EXPECT_EQ(inj.fired("net.t"), 3u);
}

TEST_F(NetFaultTest, ShortCarriesItsByteBudget) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.a=short:7").ok());
  ASSERT_TRUE(inj.ArmSpec("net.b=short").ok());  // budget defaults to 1
  const NetFaultInjector::Decision a = NetFaultPoint("net.a");
  EXPECT_EQ(a.kind, ActionKind::kShort);
  EXPECT_EQ(a.arg, 7u);
  const NetFaultInjector::Decision b = NetFaultPoint("net.b");
  EXPECT_EQ(b.kind, ActionKind::kShort);
  EXPECT_EQ(b.arg, 1u);
}

TEST_F(NetFaultTest, EintrStormSpansConsecutiveVisits) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.s=eintr:3@5").ok());
  std::vector<ActionKind> got;
  for (int i = 0; i < 10; ++i) got.push_back(NetFaultPoint("net.s").kind);
  // Visits 5,6,7 are one 3-EINTR storm; the cadence then resumes and
  // visit 10 starts the next storm.
  const std::vector<ActionKind> want = {
      ActionKind::kNone,  ActionKind::kNone,  ActionKind::kNone,
      ActionKind::kNone,  ActionKind::kEintr, ActionKind::kEintr,
      ActionKind::kEintr, ActionKind::kNone,  ActionKind::kNone,
      ActionKind::kEintr};
  EXPECT_EQ(got, want);
  EXPECT_EQ(inj.fired("net.s"), 4u);
}

TEST_F(NetFaultTest, PointsAreIndependent) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.x=reset").ok());
  ASSERT_TRUE(inj.ArmSpec("net.y=delay:250").ok());
  EXPECT_EQ(NetFaultPoint("net.other").kind, ActionKind::kNone);
  EXPECT_EQ(NetFaultPoint("net.x").kind, ActionKind::kReset);
  const NetFaultInjector::Decision y = NetFaultPoint("net.y");
  EXPECT_EQ(y.kind, ActionKind::kDelay);
  EXPECT_EQ(y.arg, 250u);
  EXPECT_EQ(inj.fired("net.x"), 1u);
  EXPECT_EQ(inj.fired("net.y"), 1u);
}

TEST_F(NetFaultTest, DisarmDropsEverything) {
  NetFaultInjector& inj = NetFaultInjector::Instance();
  ASSERT_TRUE(inj.ArmSpec("net.x=reset").ok());
  EXPECT_EQ(NetFaultPoint("net.x").kind, ActionKind::kReset);
  inj.Disarm();
  EXPECT_EQ(NetFaultPoint("net.x").kind, ActionKind::kNone);
  EXPECT_EQ(inj.fired("net.x"), 0u);
}

// ABCS_FAULT_INJECT routing: "net."-prefixed specs arm the socket
// injector without enabling the crash injector, and several
// comma-separated specs arm together.
TEST_F(NetFaultTest, EnvRoutesNetSpecsWithoutArmingCrashInjector) {
  ::setenv("ABCS_FAULT_INJECT", "net.e1=reset@2,net.e2=short:9", 1);
  FaultInjector::Instance().ArmFromEnv();
  ::unsetenv("ABCS_FAULT_INJECT");
  EXPECT_FALSE(FaultInjector::Instance().armed());
  EXPECT_EQ(NetFaultPoint("net.e1").kind, ActionKind::kNone);
  EXPECT_EQ(NetFaultPoint("net.e1").kind, ActionKind::kReset);
  const NetFaultInjector::Decision d = NetFaultPoint("net.e2");
  EXPECT_EQ(d.kind, ActionKind::kShort);
  EXPECT_EQ(d.arg, 9u);
}

// Crash specs are as strict as net specs: only `point` and
// `point=short:N` arm the crash injector, N parsed to its end.
TEST_F(NetFaultTest, EnvArmsWellFormedCrashSpec) {
  ::setenv("ABCS_FAULT_INJECT", "bundle_save.sections=short:17", 1);
  FaultInjector::Instance().ArmFromEnv();
  ::unsetenv("ABCS_FAULT_INJECT");
  EXPECT_TRUE(FaultInjector::Instance().armed());
  EXPECT_EQ(FaultInjector::Instance().WriteBudget("bundle_save.sections", 64),
            17u);
  FaultInjector::Instance().Disarm();
}

// Any other spec is a harness bug: it exits 2, the path a malformed net
// spec takes, instead of arming some other fault.
TEST_F(NetFaultTest, EnvRejectsMalformedSpecsWithExitTwo) {
  for (const char* spec :
       {"bundle_save.sections=short:x", "bundle_save.after_fsync=bogus",
        "bundle_save.sections=short:", "net.x=bogus", "net.a=short:-1",
        "net.b=delay: 7", "net.c=eintr:+3@ 2"}) {
    EXPECT_EXIT(
        {
          ::setenv("ABCS_FAULT_INJECT", spec, 1);
          FaultInjector::Instance().ArmFromEnv();
          std::_Exit(0);
        },
        ::testing::ExitedWithCode(2), "ABCS_FAULT_INJECT")
        << spec;
  }
}

}  // namespace
}  // namespace abcs
