// Small helpers shared by the benchmark workloads: sample statistics,
// process accounting from /proc and getrusage, file IO, and child processes.
#ifndef PERFBENCH_HARNESS_UTIL_H_
#define PERFBENCH_HARNESS_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
/// Mean of an unsorted sample after dropping its `trim` share (rounded
/// down) at each end; 0 for an empty sample.
double TrimmedMean(std::vector<double> values, double trim);

/// CPU seconds (user + system, all threads) this process has used so far.
double SelfCpuSeconds();
/// CPU seconds of another process, from /proc/<pid>/stat; -1 if unreadable.
double ProcessCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of a process in MiB; -1 if unreadable.
double PeakRssMb(pid_t pid);
/// Resets a process's VmHWM to its current RSS (Linux clear_refs "5"), so a
/// later PeakRssMb measures only what follows. False if unsupported.
bool ResetPeakRss(pid_t pid);
/// Returns this process's freed heap to the system (malloc_trim), then
/// resets its VmHWM: each iteration's peak starts from the same baseline
/// instead of whatever the previous iteration left mapped.
bool ResetSelfPeakRss();

/// Host-wide CPU ticks from /proc/stat: time stolen from this machine by its
/// hypervisor, and all ticks. Their change over a run shows interference.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuTicks ReadCpuTicks();

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& bytes);
long long FileSize(const std::string& path);  // -1 when missing.

/// Runs `argv` to completion with stdout and stderr appended to `log_path`;
/// returns its exit status, or -1 when it could not be started or was
/// killed by a signal.
int RunProcess(const std::vector<std::string>& argv,
               const std::string& log_path);

/// A child process that dies with the benchmark (PR_SET_PDEATHSIG) and is
/// always reaped: the destructor kills and waits for one still running.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool Start(const std::vector<std::string>& argv,
             const std::string& log_path);
  /// SIGTERM, then waits up to `timeout_ms` before SIGKILL. Returns the exit
  /// status (or -1 when it had to be killed).
  int Stop(int timeout_ms = 10000);
  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_UTIL_H_
