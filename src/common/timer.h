/**
 * @file
 * Wall-clock timer for host-CPU measurements (Fig. 14 and the micro
 * benchmarks measure our real CPU implementations, not the simulator).
 */
#pragma once

#include <chrono>

namespace cross {

/** Simple steady-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start_(clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = clock::now(); }

    /** Elapsed seconds since construction / last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    /** Elapsed microseconds. */
    double micros() const { return seconds() * 1e6; }

    /**
     * Elapsed seconds, restarting the stopwatch on the same clock read:
     * consecutive laps split one span into back-to-back phases.
     */
    double
    lap()
    {
        const clock::time_point now = clock::now();
        const double s = std::chrono::duration<double>(now - start_).count();
        start_ = now;
        return s;
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace cross
