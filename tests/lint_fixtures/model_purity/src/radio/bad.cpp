// Seeded CI fixture (never compiled): the engine timing itself. Timing
// enters the engine only through a driver-supplied hook.
#include "perf/profiler.h"
