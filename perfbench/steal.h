// Hypervisor steal accounting for a benchmark running in a virtual machine.
//
// On a shared host the hypervisor can withhold the virtual CPUs for long
// stretches; that time passes on the wall clock while no code of the program
// runs, and no change to the program can win it back.  Steal_clock samples
// the kernel's cumulative busy and steal counters (/proc/stat, all CPUs)
// every 50 ms on a background thread.  For any interval of the run it gives
// the share of the virtual CPUs' busy time that was stolen, so a wall time
// measured over that interval can be reported net of it: t * (1 - share).
// Where /proc/stat cannot be read the share is 0 and times stay raw.
#ifndef PERFBENCH_STEAL_H
#define PERFBENCH_STEAL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

class Steal_clock {
 public:
  Steal_clock() {
    Sample s;
    if (!read(s)) return;
    samples_.push_back(s);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        Sample x;
        if (read(x)) {
          std::lock_guard<std::mutex> lock(m_);
          samples_.push_back(x);
        }
      }
    });
  }
  ~Steal_clock() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Steal_clock(const Steal_clock&) = delete;
  Steal_clock& operator=(const Steal_clock&) = delete;

  bool available() const {
    std::lock_guard<std::mutex> lock(m_);
    return !samples_.empty();
  }

  // Share of busy vCPU time stolen over [a, b] (now_s() times), in [0, 1).
  double stolen_share(double a, double b) const {
    std::lock_guard<std::mutex> lock(m_);
    if (samples_.size() < 2 || b <= a) return 0.0;
    const Sample sa = at(a), sb = at(b);
    const double steal = sb.steal - sa.steal;
    const double busy = sb.busy - sa.busy;
    if (steal <= 0.0 || steal + busy <= 0.0) return 0.0;
    return std::min(steal / (steal + busy), 0.95);
  }

  // `seconds` measured over [a, b], net of the time stolen in it.
  double net(double seconds, double a, double b) const {
    return seconds * (1.0 - stolen_share(a, b));
  }

 private:
  struct Sample {
    double t = 0.0;
    double busy = 0.0;   // user + nice + system + irq + softirq ticks
    double steal = 0.0;  // steal ticks
  };

  static bool read(Sample& s) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return false;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    if (n != 8) return false;
    s.t = now_s();
    s.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
    s.steal = static_cast<double>(v[7]);
    return true;
  }

  // Counters at time t, linearly interpolated between samples (clamped to
  // the first and last sample).
  Sample at(double t) const {
    const auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const Sample& s, double v) { return s.t < v; });
    if (it == samples_.begin()) return samples_.front();
    if (it == samples_.end()) return samples_.back();
    const Sample& lo = *(it - 1);
    const Sample& hi = *it;
    const double w = hi.t > lo.t ? (t - lo.t) / (hi.t - lo.t) : 0.0;
    return {t, lo.busy + w * (hi.busy - lo.busy),
            lo.steal + w * (hi.steal - lo.steal)};
  }

  mutable std::mutex m_;
  std::vector<Sample> samples_;  // guarded by m_
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses the members above
};

}  // namespace perfbench

#endif  // PERFBENCH_STEAL_H
