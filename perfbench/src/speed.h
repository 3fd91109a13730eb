// Host-speed correction of wall times.
//
// On a shared virtual machine the CPUs do not run at a fixed speed: the same
// op on the same code took up to 44% longer in one ten-run set than in
// another taken 45 minutes later, with hypervisor steal time near zero (so a
// CPU-time clock slows down just as much as the wall clock). The benchmark
// therefore times a fixed probe — a small list-scheduling and hashing kernel
// plus a pointer chase through 16 MiB, using none of the repository's
// code — on the CPUs an op runs on, just
// before and just after every timed op and set-up repetition, and scales the
// run's walls by kProbeReferenceMs / (median probe time of the run). A change
// to the program moves the walls but not the probe, so it shows in full; a
// slower host moves both, and cancels out. Raw walls and every probe time
// stay in the record line.
#pragma once


namespace perfbench {

/// Probe time of the machine the benchmark was calibrated on, in ms: a
/// corrected time is the wall the op would have taken at that speed.
inline constexpr double kProbeReferenceMs = 4.0;

/// One probe's times, in ms.
struct Probe {
  double compute_ms = 0.0;  // list scheduling + hashing, cache-resident
  double memory_ms = 0.0;   // pointer chase, cache- and memory-latency bound
  double total_ms() const { return compute_ms + memory_ms; }
};

/// Runs the probe once on every CPU of the calling thread's affinity mask at
/// the same time (one pinned thread per CPU) and returns the mean of the
/// per-CPU times. Each CPU's times are medians of five repetitions.
Probe speed_probe();

}  // namespace perfbench
