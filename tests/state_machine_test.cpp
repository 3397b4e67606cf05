#include <gtest/gtest.h>

#include "c3/state_machine.hpp"
#include "idl/gen_api.hpp"
#include "tests/test_util.hpp"
#include "util/assert.hpp"

namespace sg {
namespace {

using c3::DescStateMachine;
using c3::FnId;
using c3::StateId;

/// Name of σ(·, fn), the state a descriptor enters when `fn` completes.
std::string state_after(const DescStateMachine& sm, const std::string& fn) {
  return sm.state_name(sm.next_state_id(sm.fn_id(fn)));
}

DescStateMachine lock_like_sm() {
  DescStateMachine sm;
  sm.set_creation("alloc");
  sm.set_terminal("free");
  sm.set_block("take");
  sm.set_wakeup("release");
  sm.add_transition("alloc", "take");
  sm.add_transition("alloc", "free");
  sm.add_transition("take", "release");
  sm.add_transition("take", "free");
  sm.add_transition("release", "take");
  sm.add_transition("release", "free");
  sm.finalize();
  return sm;
}

TEST(StateMachineTest, MergesEquivalentStates) {
  const auto sm = lock_like_sm();
  // alloc and release have identical outgoing sets => both are s0.
  EXPECT_EQ(state_after(sm, "alloc"), DescStateMachine::kInitial);
  EXPECT_EQ(state_after(sm, "release"), DescStateMachine::kInitial);
  EXPECT_EQ(state_after(sm, "take"), "after_take");
  EXPECT_EQ(sm.live_state_count(), 2u);  // s0 + after_take.
}

TEST(StateMachineTest, WalkReachesHeldState) {
  const auto sm = lock_like_sm();
  const StateId taken = sm.state_id("after_take");
  EXPECT_EQ(test::walk_names(sm, taken), (std::vector<std::string>{"take"}));
  EXPECT_EQ(sm.reached_state_id(taken), taken);
  EXPECT_TRUE(sm.recovery_walk_ids(sm.state_id(DescStateMachine::kInitial)).empty());
}

TEST(StateMachineTest, SigmaAndValidity) {
  const auto sm = lock_like_sm();
  const StateId s0 = sm.state_id("s0");
  const StateId taken = sm.state_id("after_take");
  const FnId take = sm.fn_id("take");
  const FnId release = sm.fn_id("release");
  const FnId free_fn = sm.fn_id("free");
  EXPECT_TRUE(sm.valid(s0, take));
  EXPECT_TRUE(sm.valid(s0, free_fn));
  EXPECT_FALSE(sm.valid(s0, release));  // Can't release an unheld lock.
  EXPECT_TRUE(sm.valid(taken, release));
  EXPECT_FALSE(sm.valid(taken, take));
  EXPECT_EQ(sm.state_name(sm.next_state_id(take)), "after_take");
  EXPECT_EQ(sm.state_name(sm.next_state_id(release)), "s0");
  EXPECT_EQ(sm.state_name(sm.next_state_id(free_fn)), DescStateMachine::kClosed);
}

TEST(StateMachineTest, ConsumingFnsAreNeverWalked) {
  DescStateMachine sm;
  sm.set_creation("create");
  sm.set_block("wait");
  sm.set_wakeup("post");
  sm.set_consume("wait");
  sm.add_transition("create", "wait");
  sm.add_transition("wait", "done_op");
  sm.add_transition("done_op", "wait");
  sm.finalize();
  // "after_wait" is reachable only through the consuming edge: recovery must
  // fall back to s0 rather than re-consuming the condition.
  const StateId state = sm.next_state_id(sm.fn_id("wait"));
  EXPECT_TRUE(sm.recovery_walk_ids(state).empty());
  EXPECT_EQ(sm.state_name(sm.reached_state_id(state)), DescStateMachine::kInitial);
}

TEST(StateMachineTest, RejectsCreationlessMachine) {
  DescStateMachine sm;
  sm.add_transition("a", "b");
  EXPECT_THROW(sm.finalize(), AssertionError);
}

TEST(StateMachineTest, RejectsCreateTerminalOverlap) {
  DescStateMachine sm;
  sm.set_creation("f");
  sm.set_terminal("f");
  EXPECT_THROW(sm.finalize(), AssertionError);
}

TEST(StateMachineTest, UseBeforeFinalizeThrows) {
  DescStateMachine sm;
  sm.set_creation("f");
  EXPECT_THROW(sm.states(), AssertionError);
  EXPECT_THROW(sm.recovery_walk_ids(c3::kStateInitial), AssertionError);
}

// --- property sweep over the six specs System runs (IDL-generated) -----------

class SpecSmProperty : public ::testing::TestWithParam<test::NamedSpec> {};

TEST_P(SpecSmProperty, EveryWalkIsReplayableAndTerminates) {
  const auto spec = GetParam().make();
  const auto& sm = spec.sm;
  for (std::size_t s = 0; s < sm.live_state_count(); ++s) {
    const auto state = static_cast<StateId>(s);
    const std::string& name = sm.state_name(state);
    const auto& walk = sm.recovery_walk_ids(state);
    // Walks are short (bounded by |S|) and never include creation, terminal,
    // or consuming fns.
    EXPECT_LE(walk.size(), sm.live_state_count());
    for (const FnId fn : walk) {
      EXPECT_FALSE(sm.is_creation(sm.fn_name(fn))) << spec.service << " " << sm.fn_name(fn);
      EXPECT_FALSE(sm.is_terminal(sm.fn_name(fn))) << spec.service << " " << sm.fn_name(fn);
      EXPECT_FALSE(sm.is_consume(sm.fn_name(fn))) << spec.service << " " << sm.fn_name(fn);
    }
    // Simulating the walk from s0 must land exactly on reached_state_id.
    StateId simulated = c3::kStateInitial;
    for (const FnId fn : walk) {
      EXPECT_TRUE(sm.valid(simulated, fn)) << spec.service << " " << name;
      simulated = sm.next_state_id(fn);
    }
    EXPECT_EQ(simulated, sm.reached_state_id(state)) << spec.service << " " << name;
  }
}

TEST_P(SpecSmProperty, TerminalFnsAreValidSomewhere) {
  const auto spec = GetParam().make();
  for (const auto& terminal : spec.sm.terminal_fns()) {
    const FnId fn = spec.sm.fn_id(terminal);
    bool valid_somewhere = false;
    for (std::size_t s = 0; s < spec.sm.live_state_count(); ++s) {
      if (spec.sm.valid(static_cast<StateId>(s), fn)) valid_somewhere = true;
    }
    EXPECT_TRUE(valid_somewhere) << spec.service << " " << terminal;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSmProperty,
                         ::testing::Values(test::NamedSpec{"sched", &gen::make_sched_spec},
                                           test::NamedSpec{"lock", &gen::make_lock_spec},
                                           test::NamedSpec{"mman", &gen::make_mman_spec},
                                           test::NamedSpec{"ramfs", &gen::make_ramfs_spec},
                                           test::NamedSpec{"evt", &gen::make_evt_spec},
                                           test::NamedSpec{"tmr", &gen::make_tmr_spec}));

}  // namespace
}  // namespace sg
