#include "util.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = static_cast<size_t>(trim * static_cast<double>(values.size()));
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ProcessCpuSeconds(pid_t pid) {
  std::string stat;
  if (!ReadFile("/proc/" + std::to_string(pid) + "/stat", &stat)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return -1;
}

bool ResetPeakRss(pid_t pid) {
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

bool ResetSelfPeakRss() {
  malloc_trim(0);
  return ResetPeakRss(getpid());
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the aggregate line.
  CpuTicks ticks;
  unsigned long long value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return !in.bad();
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

long long FileSize(const std::string& path) {
  struct stat st{};
  if (stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long long>(st.st_size);
}

namespace {

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path,
            bool die_with_parent) {
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: only async-signal-safe calls until exec.
  if (die_with_parent) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
  }
  int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  execv(args[0], args.data());
  _exit(127);
}

int DecodeStatus(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int RunProcess(const std::vector<std::string>& argv,
               const std::string& log_path) {
  std::fflush(nullptr);
  pid_t pid = Spawn(argv, log_path, /*die_with_parent=*/true);
  if (pid < 0) return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return DecodeStatus(status);
}

ChildProcess::~ChildProcess() {
  if (running()) Stop(0);
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  std::fflush(nullptr);
  pid_ = Spawn(argv, log_path, /*die_with_parent=*/true);
  return pid_ > 0;
}

int ChildProcess::Stop(int timeout_ms) {
  if (!running()) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  for (int waited = 0;; waited += 10) {
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 || waited >= timeout_ms) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pid_ = -1;
  return DecodeStatus(status);
}

}  // namespace perfbench
