#include "service/job_queue.h"

#include <utility>

namespace pghive::service {

bool JobQueue::Submit(const std::string& lane, Job job) {
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return false;
    Lane& l = lanes_[lane];
    l.jobs.push_back(std::move(job));
    ++pending_;
    if (!l.running) {
      l.running = true;
      dispatch = true;
    }
  }
  if (dispatch) {
    if (pool_ != nullptr && pool_->num_threads() > 1) {
      pool_->Submit([this, lane] { RunLane(lane); });
    } else {
      RunLane(lane);
    }
  }
  return true;
}

void JobQueue::RunLane(const std::string& lane) {
  Job job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The dispatching Submit queued a job and no one else pops this lane.
    Lane& l = lanes_[lane];
    job = std::move(l.jobs.front());
    l.jobs.pop_front();
  }
  for (;;) {
    // Jobs are expected not to throw (session jobs latch a Status instead),
    // but a stray exception must not kill the pool worker or wedge the lane
    // bookkeeping.
    try {
      job();
    } catch (...) {
    }
    job = nullptr;  // Release the job's captures before it counts as done.
    // Retiring the finished job and taking the next one (or marking the
    // lane idle) is one critical section, and the runner's last access to
    // `this` when the lane empties: a waiter in Drain or DrainLane cannot
    // observe the idle state, return and destroy the queue before it ends.
    std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    Lane& l = lanes_[lane];
    if (l.jobs.empty()) {
      l.running = false;
      idle_.notify_all();
      return;
    }
    job = std::move(l.jobs.front());
    l.jobs.pop_front();
  }
}

void JobQueue::DrainLane(const std::string& lane) {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] {
    auto it = lanes_.find(lane);
    return it == lanes_.end() || (it->second.jobs.empty() && !it->second.running);
  });
}

void JobQueue::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return pending_ == 0; });
}

void JobQueue::Shutdown() {
  Drain();
  std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
}

size_t JobQueue::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

}  // namespace pghive::service
