// JobQueue lifetime under the `threaded` label (the CI TSan job runs it):
// a lane runner must finish touching the queue before Drain() can return,
// so destroying the queue right after Drain() is safe. A runner that read
// its lane again after the job that emptied the queue would show here as a
// heap-use-after-free under ASan or a race under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "service/job_queue.h"
#include "util/thread_pool.h"

namespace pghive::service {
namespace {

TEST(JobQueueTest, DestroyImmediatelyAfterDrain) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kRounds = 200;
  constexpr int kLanes = 4;
  constexpr int kJobsPerLane = 3;
  for (int round = 0; round < kRounds; ++round) {
    auto queue = std::make_unique<JobQueue>(&pool);
    for (int j = 0; j < kJobsPerLane; ++j) {
      for (int lane = 0; lane < kLanes; ++lane) {
        ASSERT_TRUE(queue->Submit("lane" + std::to_string(lane),
                                  [&ran] { ran.fetch_add(1); }));
      }
    }
    queue->Drain();
    EXPECT_EQ(queue->pending(), 0u);
    queue.reset();
  }
  EXPECT_EQ(ran.load(), kRounds * kLanes * kJobsPerLane);
}

}  // namespace
}  // namespace pghive::service
