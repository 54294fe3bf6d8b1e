/**
 * @file
 * A fixed calibration kernel that measures how fast the host runs at
 * the moment, so host times can be scaled to a reference speed.
 *
 * On a shared virtual machine the same work runs up to 1.8 times
 * slower or faster for seconds to minutes at a time, depending on
 * what the host's other tenants do. The kernel is a small event
 * simulation (a heap of server finish times, exponential variates,
 * per-server accumulators) followed by hash-table inserts and erases,
 * so it slows down with the host much as the simulator does. Its code
 * lives here and never depends on the library, so a change to the
 * library cannot move it: dividing a library timing by the kernel's
 * timing, taken straight after, removes most of the host's drift and
 * keeps the library's own speed.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

namespace perfbench {

/**
 * Seconds one calibration pass takes at the reference speed: about
 * its time on an uncontended vCPU of the 4-vCPU Xeon (family 6,
 * model 143) KVM guest the bounds were set on, GCC 12.2, Release.
 * Host times are multiplied by this over the measured pass time.
 */
inline constexpr double kReferencePassSeconds = 0.013;

/**
 * Run calibration passes for at least `budgetSeconds` (one pass at
 * least) and return the median seconds per pass.
 */
double calibrationPassSeconds(double budgetSeconds);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
