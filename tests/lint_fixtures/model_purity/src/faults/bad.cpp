// Seeded CI fixture (never compiled): the fault injector reading the wall
// clock. Fault schedules are a pure function of (seed, plan, graph).
#include "support/stopwatch.h"
