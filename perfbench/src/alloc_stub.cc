// Linked into the timed binary: no allocation counting (see
// alloc_counter.cc for the traced binary's replacement operator new).

#include "bench.h"

namespace perfbench {

bool AllocCountingAvailable() { return false; }
void SetAllocCounting(bool) {}
AllocCounts ReadAllocCounts() { return AllocCounts{}; }

}  // namespace perfbench
