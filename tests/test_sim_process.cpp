#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace cni::sim {
namespace {

TEST(SimThread, DelayAdvancesSimulatedTime) {
  Engine e;
  SimTime seen = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.delay(100);
    seen = e.now();
    self.delay(50);
  });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(e.now(), 150u);
}

TEST(SimThread, InterleavesWithEvents) {
  Engine e;
  std::vector<int> order;
  SimThread t(e, "t", [&](SimThread& self) {
    order.push_back(1);
    self.delay(100);
    order.push_back(3);
  });
  e.schedule_at(50, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimThread, BlockAndWake) {
  Engine e;
  SimTime woke_at = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.block();
    woke_at = e.now();
  });
  e.schedule_at(500, [&] { t.wake(); });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(woke_at, 500u);
}

TEST(SimThread, DoubleWakeSameInstantIsIdempotent) {
  Engine e;
  int resumes = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    self.block();
    ++resumes;
    self.delay(10);  // would explode if a second resume were pending
  });
  e.schedule_at(5, [&] {
    t.wake();
    t.wake();
  });
  e.run();
  EXPECT_EQ(resumes, 1);
}

TEST(SimThread, BodyExceptionPropagatesToRun) {
  Engine e;
  SimThread t(e, "t", [&](SimThread&) { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

// Recurses `depth` levels, each pinning a 1 KB frame. The volatile frame and
// the use of the callee's result keep the compiler from flattening it.
[[gnu::noinline]] std::uint64_t burn_stack(std::uint64_t depth) {
  volatile unsigned char frame[1024];
  frame[0] = static_cast<unsigned char>(depth);
  if (depth == 0) return frame[0];
  return burn_stack(depth - 1) + frame[0];
}

// Fills 400 KB of locals in one frame, touching every 1 KB of them.
[[gnu::noinline]] std::uint64_t touch_locals() {
  constexpr std::size_t kBytes = 400 * 1024;
  volatile unsigned char locals[kBytes];
  for (std::size_t i = 0; i < kBytes; i += 1024) locals[i] = 1;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kBytes; i += 1024) sum += locals[i];
  return sum;
}

TEST(SimThread, StackOverflowDiesOnTheGuardPage) {
  // Recursing just 16 KB past the bottom of the stack must fault on the
  // guard page (or, under ASan, be reported as a stack overflow) rather than
  // write into whatever lies below and return. Empty regex: both match.
  EXPECT_DEATH(
      {
        Engine e;
        SimThread t(e, "t", [](SimThread&) {
          volatile std::uint64_t depth = SimThread::kStackBytes / 1024 + 16;
          (void)burn_stack(depth);
        });
        e.run();
      },
      "");
}

TEST(SimThread, MostOfTheStackIsUsable) {
  Engine e;
  std::uint64_t sum = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    sum = touch_locals();
    self.delay(1);
  });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(sum, 400u);
}

TEST(SimThread, ManyThreadsDeterministicInterleaving) {
  std::vector<SimTime> first_run;
  for (int rep = 0; rep < 2; ++rep) {
    Engine e;
    std::vector<SimTime> log;
    std::vector<std::unique_ptr<SimThread>> ts;
    for (int i = 0; i < 16; ++i) {
      ts.push_back(std::make_unique<SimThread>(e, "t", [&log, i](SimThread& self) {
        for (int k = 0; k < 5; ++k) {
          self.delay(static_cast<SimDuration>(10 + i));
          log.push_back(self.engine().now());
        }
      }));
    }
    e.run();
    if (rep == 0) {
      first_run = log;
    } else {
      EXPECT_EQ(log, first_run);
    }
  }
}

TEST(LocalClock, AccumulatesAndSyncs) {
  Engine e;
  LocalClock lc(Clock{1'000'000'000});  // 1 GHz: 1 cycle = 1 ns
  SimThread t(e, "t", [&](SimThread& self) {
    lc.charge_cycles(100);
    lc.charge_cycles(50);
    EXPECT_EQ(lc.pending_cycles(), 150u);
    lc.sync(self);
    EXPECT_EQ(lc.pending_cycles(), 0u);
  });
  e.run();
  EXPECT_EQ(e.now(), 150u * kNanosecond);
}

TEST(WaitQueue, PredicateLoop) {
  Engine e;
  bool flag = false;
  WaitQueue wq;
  SimTime resumed = 0;
  SimThread t(e, "t", [&](SimThread& self) {
    wq.wait(self, [&] { return flag; });
    resumed = e.now();
  });
  // A notify without the predicate being true re-parks the waiter.
  e.schedule_at(10, [&] { wq.notify_all(); });
  e.schedule_at(20, [&] {
    flag = true;
    wq.notify_all();
  });
  e.run();
  EXPECT_EQ(resumed, 20u);
}

TEST(SimChannel, BlockingReceive) {
  Engine e;
  SimChannel<int> ch;
  int got = 0;
  SimTime when = 0;
  SimThread t(e, "rx", [&](SimThread& self) {
    got = ch.receive(self);
    when = e.now();
  });
  e.schedule_at(77, [&] { ch.send(42); });
  e.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(when, 77u);
}

TEST(SimChannel, FifoOrder) {
  Engine e;
  SimChannel<int> ch;
  std::vector<int> got;
  SimThread t(e, "rx", [&](SimThread& self) {
    for (int i = 0; i < 3; ++i) got.push_back(ch.receive(self));
  });
  e.schedule_at(1, [&] {
    ch.send(1);
    ch.send(2);
    ch.send(3);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SimSemaphore, LimitsConcurrency) {
  Engine e;
  SimSemaphore sem(1);
  int inside = 0;
  int max_inside = 0;
  std::vector<std::unique_ptr<SimThread>> ts;
  for (int i = 0; i < 4; ++i) {
    ts.push_back(std::make_unique<SimThread>(e, "t", [&](SimThread& self) {
      sem.acquire(self);
      ++inside;
      max_inside = std::max(max_inside, inside);
      self.delay(100);
      --inside;
      sem.release();
    }));
  }
  e.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(e.now(), 400u);  // fully serialized
}

}  // namespace
}  // namespace cni::sim
