// The one parallel primitive of the tool set: run whole, independent units
// of work (an image of a batch rewrite, a test corpus entry) on a few
// threads.
//
// A rewrite itself runs on one thread, end to end; concurrency comes from
// rewriting several images at once (`redfat --output-dir`, `redfatd`).
// ParallelFor starts its workers for the call and joins them before it
// returns, so nothing outlives a loop.
#ifndef REDFAT_SRC_SUPPORT_PARALLEL_H_
#define REDFAT_SRC_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace redfat {

// Number of workers to use for `jobs == 0` ("auto"): the hardware
// concurrency, or 1 if it cannot be determined.
unsigned HardwareJobs();

// Resolves a user-supplied job count: 0 means auto, anything else is taken
// as-is.
unsigned ResolveJobs(unsigned jobs);

// Invokes fn(i) for every i in [0, n) on min(jobs, n) threads, the calling
// thread included; workers take indices from a shared counter, so each
// index must write only its own output slot. `jobs <= 1` runs every index
// inline, in order. If fn throws, the indices no worker has taken yet are
// abandoned and the first exception is rethrown once every worker has
// stopped.
void ParallelFor(size_t n, unsigned jobs, const std::function<void(size_t)>& fn);

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_PARALLEL_H_
